import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hemsflex import hems, scenarios

REPO = Path(__file__).resolve().parent.parent


def load_tool(name):
    """A script under tools/, loaded as a module without putting tools/ on the path."""
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# The writers of the example input formats, which the package only reads.
example_inputs = load_tool("make_example_inputs")


@pytest.fixture
def battery_simple():
    """Battery from the worked flexibility-band example: efficiency neglected,
    hourly steps, 20% initial SoC."""
    return hems.BatteryConfig(
        capacity=3.2,
        p_charge_max=1.5,
        p_discharge_max=1.5,
        soc_init=0.64,
        efficiency=1.0,
        soc_min_frac=0.15,
    )


@pytest.fixture
def battery_reference():
    """Battery of the reference experiment: 3.2 kWh, 1.5 kW, 92.5%, 60% initial."""
    return hems.BatteryConfig(
        capacity=3.2,
        p_charge_max=1.5,
        p_discharge_max=1.5,
        soc_init=0.6 * 3.2,
        efficiency=0.925,
        soc_min_frac=0.15,
    )


@pytest.fixture
def ewh_reference():
    return hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0)


@pytest.fixture
def hems_reference(battery_reference, ewh_reference):
    return hems.HemsConfig(battery=battery_reference, ewh=ewh_reference)


def stacked(trajectories) -> hems.TrajectorySet:
    """The trajectories as the rows of one set, built the way a test writes
    them out one by one."""
    return hems.TrajectorySet(np.stack([t.as_vector() for t in trajectories]))


def make_marginals(base, sigma=0.1, probs=(0.05, 0.25, 0.5, 0.75, 0.95)):
    """Quantile tables around a base profile with Gaussian-consistent spread."""
    from scipy.special import ndtri

    probs = np.asarray(probs)
    z = ndtri(probs)
    return [
        scenarios.MarginalForecast(t + 1, probs.copy(), b + z * sigma)
        for t, b in enumerate(np.asarray(base, dtype=float))
    ]


@pytest.fixture
def small_instance(hems_reference):
    """16-step, 20-scenario instance that is comfortably feasible."""
    base = np.concatenate([np.full(6, 0.4), np.linspace(0.2, -0.3, 4), np.full(6, 0.5)])
    marginals = make_marginals(base, sigma=0.08)
    scenario_set = scenarios.generate_scenarios(
        marginals, scenarios.CopulaConfig(count=20, nu_cov=4.0, seed=3)
    )
    ewh = hems.EwhConfig(
        p_nom=0.5,
        theta_min=45.0,
        theta_max=80.0,
        theta_init=60.0,
        draw_profile=np.full(16, 1.0),
    )
    cfg = hems.HemsConfig(battery=hems_reference.battery, ewh=ewh)
    return scenario_set, cfg
