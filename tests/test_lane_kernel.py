"""Population-wide screening and repair: a (P, S) kernel call must agree with
row-by-row calls and with the independent oracle, including states that sit
exactly on, or within EPS of, a constraint limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hemsflex import analysis, hems, scenarios
from hemsflex.hems import EPS, FlexTrajectory

CAPACITY = 3.2
P_MAX = 1.5
P_NOM = 0.5
SOC_MIN = 0.15 * CAPACITY
KNEE = 0.8 * CAPACITY
THETA_MIN, THETA_MAX = 45.0, 80.0

# Surplus powers around the absorption rule's edges: the EPS threshold on the
# supposed absorption and the EWH rating that the net surplus is taken after.
SURPLUS_EDGES = [EPS / 2, EPS, 2 * EPS, P_NOM, P_NOM + EPS, P_NOM + 2 * EPS, P_MAX, 3.0]

PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _first_step_edges(soc_init: float, efficiency: float, dt: float, limit: float) -> list[float]:
    """Battery powers that put the first step on, or within EPS of, each rule's
    limit when nothing is absorbed."""
    to_max = (CAPACITY - soc_init) / (efficiency * dt)
    to_min = -(soc_init - SOC_MIN) * efficiency / dt
    slack = EPS / (efficiency * dt)
    return [
        limit - EPS, limit, limit + EPS, limit + 2 * EPS,
        to_max - slack, to_max, to_max + slack, to_max + 2 * slack,
        to_min - 2 * slack, to_min - slack, to_min, to_min + slack,
        0.0, -0.0, -EPS / 2, -EPS, -2 * EPS,
        P_MAX, -P_MAX,
    ]


@st.composite
def lane_instances(draw):
    """A HEMS, a population of trajectories and net-load rows, biased toward
    constraint edges; surplus is present everywhere, nowhere, or mixed."""
    dt = draw(st.sampled_from([0.25, 1.0]))
    efficiency = draw(st.sampled_from([1.0, 0.925]))
    soc_init = draw(
        st.sampled_from([SOC_MIN, SOC_MIN + EPS, KNEE - EPS, KNEE, KNEE + EPS, CAPACITY - EPS, CAPACITY])
        | st.floats(SOC_MIN, CAPACITY)
    )
    battery = hems.BatteryConfig(
        capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=P_MAX,
        soc_init=soc_init, efficiency=efficiency,
    )
    horizon = draw(st.integers(1, 12))
    n_traj = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 4))
    theta_init = draw(st.sampled_from([THETA_MIN, THETA_MIN + EPS, 60.0, THETA_MAX - EPS, THETA_MAX]))
    draws = draw(arrays(float, horizon, elements=st.sampled_from([0.0, 1.0, 10.0])))
    cfg = hems.HemsConfig(
        battery=battery,
        ewh=hems.EwhConfig(
            p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX,
            theta_init=theta_init, draw_profile=draws,
        ),
    )

    limit = hems.max_charge_power(soc_init, battery)
    power = st.sampled_from(_first_step_edges(soc_init, efficiency, dt, limit)) | st.floats(-P_MAX, P_MAX)
    p_bat = draw(arrays(float, (n_traj, horizon), elements=power))
    p_ewh = draw(arrays(float, (n_traj, horizon), elements=st.sampled_from([0.0, P_NOM])))

    surplus = st.sampled_from(SURPLUS_EDGES) | st.floats(EPS / 4, 3.0)
    load = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 2.0)
    mode = draw(st.sampled_from(["all", "none", "mixed"]))
    if mode == "all":
        step = surplus.map(lambda s: -s)
    elif mode == "none":
        step = load
    else:
        step = surplus.map(lambda s: -s) | load
    net_load = draw(arrays(float, (n_rows, horizon), elements=step))
    return cfg, dt, p_bat, p_ewh, net_load


# Offsets from a limit, in units of EPS, that the edge instances land on.
OFFSETS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
# Rules whose edge is set by each trajectory's first-step power.
PER_TRAJECTORY = ("charge_rate", "soc_max", "soc_min", "discharge", "theta_min", "theta_max")


@st.composite
def edge_instances(draw):
    """Instances whose first step lands each trajectory a few EPS from one
    rule's limit (the charging taper from the knee up, SoC bounds, both sides
    of the discharge rule, the tank band) and keeps every other rule slack, so
    the verdict turns on that comparison alone. The headroom rule instead
    starts the battery empty amid hours of steady surplus and lets each
    trajectory discharge once, at its own step: the verdict turns on whether
    the tracker has run dry by then."""
    rule = draw(
        st.sampled_from(
            ["charge_rate", "soc_max", "soc_min", "absorb", "discharge", "headroom", "theta_min", "theta_max"]
        )
    )
    dt = {"charge_rate": 0.25, "headroom": 1.0}.get(rule) or draw(st.sampled_from([0.25, 1.0]))
    efficiency = draw(st.sampled_from([1.0, 0.925]))
    horizon = draw(st.integers(1, 8))
    # Where the edge is per trajectory or per row, the population or the row
    # set covers every offset, or every discharge step, once.
    if rule in PER_TRAJECTORY:
        n_traj = len(OFFSETS)
    elif rule == "headroom":
        n_traj = horizon
    else:
        n_traj = draw(st.integers(1, 4))
    n_rows = len(OFFSETS) if rule == "absorb" else draw(st.integers(1, 4))
    soc_init = {
        "charge_rate": st.sampled_from([KNEE - EPS, KNEE, KNEE + EPS, 2.8, 3.0]),
        "soc_max": st.sampled_from([KNEE, CAPACITY - 0.1, CAPACITY]),
        "soc_min": st.sampled_from([SOC_MIN, SOC_MIN + 0.1, 1.0]),
        "headroom": st.just(SOC_MIN),
    }.get(rule, st.just(1.92))
    soc_init = draw(soc_init)
    battery = hems.BatteryConfig(
        capacity=CAPACITY, p_charge_max=P_MAX, p_discharge_max=P_MAX,
        soc_init=soc_init, efficiency=efficiency,
    )

    draws = draw(arrays(float, horizon, elements=st.sampled_from([0.0, 1.0, 10.0])))
    # Tank rules start a few degrees inside the band, and after the edge step
    # the heater drives the tank back inside it.
    theta_init = {"theta_min": 50.0, "theta_max": 75.0}.get(rule, 60.0)
    heat = np.full(horizon, P_NOM if rule == "theta_min" else 0.0)
    cfg = hems.HemsConfig(
        battery=battery,
        ewh=hems.EwhConfig(
            p_nom=P_NOM, theta_min=THETA_MIN, theta_max=THETA_MAX,
            theta_init=theta_init, draw_profile=draws,
        ),
    )

    p_bat = np.zeros((n_traj, horizon))
    p_ewh = np.tile(heat, (n_traj, 1))
    net_load = draw(arrays(float, (n_rows, horizon), elements=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 2.0)))
    for p in range(n_traj):
        k = OFFSETS[p] * EPS
        if rule == "charge_rate":
            p_bat[p, 0] = hems.max_charge_power(soc_init, battery) + k
        elif rule == "soc_max":
            p_bat[p, 0] = (CAPACITY + k - soc_init) / (efficiency * dt)
        elif rule == "soc_min":
            p_bat[p, 0] = (SOC_MIN - k - soc_init) * efficiency / dt
        elif rule == "absorb":
            p_bat[p, 0] = -0.1
            p_ewh[p, 0] = draw(st.sampled_from([0.0, P_NOM]))
        elif rule == "discharge":
            p_bat[p, 0] = -k
        elif rule == "headroom":
            p_bat[p, p] = -0.1
        elif rule in ("theta_min", "theta_max"):
            # a first-step heater power, continuous here, that lands the tank
            # at the offset beyond the floor or the ceiling
            target = THETA_MIN - k if rule == "theta_min" else THETA_MAX + k
            ewh = cfg.ewh
            p_ewh[p, 0] = (
                (target - theta_init) * ewh.thermal_capacity / dt
                + ewh.alpha_mag * (theta_init - ewh.theta_house)
                + ewh.c_p * draws[0] * (ewh.theta_des - ewh.theta_inl)
            )
    for s in range(n_rows):
        if rule == "absorb":
            # a few EPS above the heater's draw: the absorption sits at the
            # rule's EPS threshold
            surplus = draw(st.sampled_from([0.0, P_NOM])) + OFFSETS[s] * EPS
        elif rule == "discharge":
            surplus = draw(st.sampled_from([0.3, P_NOM]))
        elif rule == "headroom":
            # steady surplus, above the charge rate or not, after up to two
            # surplus-free steps in which the full tracker must not grow
            net_load[s] = -draw(st.sampled_from([P_NOM, 1.0, P_MAX, 2.0, 3.0]) | st.floats(P_NOM, 3.0))
            net_load[s, : draw(st.integers(0, 2))] = 0.0
            continue
        else:
            continue
        if draw(st.booleans()):
            net_load[s, :] = -surplus
        else:
            net_load[s, 0] = -surplus
    return cfg, dt, p_bat, p_ewh, net_load


class TestPopulationScreen:
    @PROPERTY_SETTINGS
    @given(lane_instances() | edge_instances())
    def test_matches_row_calls_and_oracle(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        draws = cfg.ewh.draws(p_bat.shape[1])
        zero_penalty, accommodation_ok = hems.batch_compliance(p_bat, p_ewh, net_load, draws, cfg, dt)
        assert zero_penalty.shape == accommodation_ok.shape == (p_bat.shape[0], net_load.shape[0])
        for p in range(p_bat.shape[0]):
            row_zero, row_ok = hems.batch_compliance(p_bat[p], p_ewh[p], net_load, draws, cfg, dt)
            assert row_zero.shape == (net_load.shape[0],)
            assert np.array_equal(zero_penalty[p], row_zero)
            assert np.array_equal(accommodation_ok[p], row_ok)
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            for s in range(net_load.shape[0]):
                oracle = analysis.oracle_check(traj, scenarios.ScenarioSet(net_load[s : s + 1]), cfg, dt)
                assert bool(zero_penalty[p, s] and accommodation_ok[p, s]) == (oracle == 1)

    def test_rejects_mismatched_horizons(self, hems_reference):
        with pytest.raises(ValueError):
            hems.batch_compliance(np.zeros((2, 4)), np.zeros((2, 5)), np.zeros((3, 4)), np.zeros(4), hems_reference, 0.25)
        with pytest.raises(ValueError):
            hems.batch_compliance(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(5), hems_reference, 0.25)


class TestBatchRepair:
    @staticmethod
    def _assert_matches_rows(p_bat, p_ewh, surplus, cfg, dt) -> tuple[int, int]:
        """Compare the batched repair with per-row repair_trajectory; return
        the number of rejected rows and of changed rows."""
        fixed, valid = hems.batch_repair(p_bat, p_ewh, surplus, cfg, dt)
        rejected = changed = 0
        for p in range(p_bat.shape[0]):
            traj = FlexTrajectory(p_bat=p_bat[p], p_ewh=p_ewh[p])
            try:
                repaired = hems.repair_trajectory(traj, surplus, cfg, dt)
            except ValueError:
                assert not valid[p]
                assert np.array_equal(fixed[p], p_bat[p])
                rejected += 1
                continue
            assert valid[p]
            assert np.array_equal(fixed[p], repaired.p_bat)
            changed += repaired is not traj
        return rejected, changed

    @PROPERTY_SETTINGS
    @given(lane_instances() | edge_instances())
    def test_matches_per_row_repair_at_edges(self, instance):
        cfg, dt, p_bat, p_ewh, net_load = instance
        envelope = np.maximum(0.0, -net_load).max(axis=0)
        self._assert_matches_rows(p_bat, p_ewh, envelope, cfg, dt)

    def test_matches_per_row_repair_on_random_population(self, small_instance):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(41)
        p_bat = rng.uniform(-1.5, 1.5, (300, 16))
        p_ewh = np.where(rng.random((300, 16)) < 0.2, 0.5, 0.0)
        surplus = np.maximum(0.0, -scenario_set.values[0])
        rejected, changed = self._assert_matches_rows(p_bat, p_ewh, surplus, cfg, 0.25)
        # both outcomes actually occur in the population
        assert rejected > 10 and changed > 10
