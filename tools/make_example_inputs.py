#!/usr/bin/env python3
"""Regenerate the synthetic example inputs under data/.

The shipped marginals, hot-water draws, and asset parameters are synthetic:
they mimic a small prosumer household (night base load, morning ramp, midday
PV production pushing net load negative, evening peak) without reproducing any
measured dataset. Run from the repository root:

    python3 tools/make_example_inputs.py

The three writers below are the only code that writes these input formats;
the package only reads them. The tests load them from this file to build
their fixture inputs.
"""

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from hemsflex import hems, scenarios

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

QUANTILE_PROBS = np.array([0.05, 0.25, 0.50, 0.75, 0.95])
QUANTILE_Z = np.array([-1.6448536269514722, -0.6744897501960817, 0.0, 0.6744897501960817, 1.6448536269514722])


def base_profile(horizon: int = 96) -> np.ndarray:
    """Median net-load curve [kW] over a day of 15-minute steps."""
    t = np.arange(horizon)
    hours = t * 0.25
    profile = np.full(horizon, 0.40)
    profile += 0.05 * np.sin(2 * np.pi * (hours - 3.0) / 24.0)
    # morning ramp 06:00-08:00
    ramp = (hours >= 6.0) & (hours < 8.0)
    profile[ramp] += 0.18 * (hours[ramp] - 6.0) / 2.0
    # PV valley 08:00-12:30, deepest near 10:30
    pv = (hours >= 8.0) & (hours < 12.5)
    profile[pv] -= 0.75 * np.exp(-0.5 * ((hours[pv] - 10.25) / 1.3) ** 2)
    # afternoon lull then evening peak 17:00-21:00
    lull = (hours >= 12.5) & (hours < 17.0)
    profile[lull] -= 0.12
    peak = (hours >= 17.0) & (hours < 21.0)
    profile[peak] += 0.45 * np.sin(np.pi * (hours[peak] - 17.0) / 4.0)
    late = hours >= 21.0
    profile[late] += 0.05
    return profile


def spread_profile(horizon: int = 96) -> np.ndarray:
    """Per-step quantile spread [kW]: wider where PV drives the uncertainty."""
    hours = np.arange(horizon) * 0.25
    sigma = np.full(horizon, 0.06)
    pv = (hours >= 7.5) & (hours < 13.5)
    sigma[pv] += 0.08 * np.exp(-0.5 * ((hours[pv] - 10.5) / 1.8) ** 2)
    return sigma


def draw_profile(horizon: int = 96) -> np.ndarray:
    """Hot-water usage [L per step]: morning, lunch, and evening draws."""
    draws = np.zeros(horizon)
    draws[28:32] = 6.0   # 07:00-08:00
    draws[50:54] = 4.0   # 12:30-13:30
    draws[76:82] = 6.0   # 19:00-20:30
    return draws


def write_marginals_csv(path, marginals) -> None:
    """Quantile tables as `t,p,q` rows, one per knot, for `scenarios.read_marginals_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "p", "q"])
        for marginal in marginals:
            for prob, value in zip(marginal.probabilities, marginal.values):
                writer.writerow([marginal.lead_time, f"{prob:g}", f"{value:.6f}"])


def write_draw_profile_csv(path, draws) -> None:
    """Litres per step as `h,liters` rows, for `hems.read_draw_profile_csv`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "liters"])
        for h, litres in enumerate(np.asarray(draws, dtype=float), start=1):
            writer.writerow([h, f"{litres:g}"])


def write_hems_json(path, cfg: hems.HemsConfig) -> None:
    """Both sections of a HEMS config field by field, for
    `hems.HemsConfig.from_json`; the draw profile lives in its own CSV."""
    doc = {
        name: {f.name: getattr(section, f.name) for f in fields(section) if f.name != "draw_profile"}
        for name, section in (("battery", cfg.battery), ("ewh", cfg.ewh))
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def main() -> None:
    DATA.mkdir(exist_ok=True)
    horizon = 96
    base = base_profile(horizon)
    sigma = spread_profile(horizon)

    marginals = []
    for t in range(horizon):
        marginals.append(
            scenarios.MarginalForecast(
                lead_time=t + 1,
                probabilities=QUANTILE_PROBS.copy(),
                values=base[t] + QUANTILE_Z * sigma[t],
            )
        )
    write_marginals_csv(DATA / "marginals_96.csv", marginals)
    write_draw_profile_csv(DATA / "draws_96.csv", draw_profile(horizon))

    cfg = hems.HemsConfig(
        battery=hems.BatteryConfig(
            capacity=3.2,
            p_charge_max=1.5,
            p_discharge_max=1.5,
            soc_init=0.6 * 3.2,
            efficiency=0.925,
            soc_min_frac=0.15,
        ),
        ewh=hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0),
    )
    write_hems_json(DATA / "hems.json", cfg)
    print(f"wrote marginals, draws, and asset parameters under {DATA}")


if __name__ == "__main__":
    main()
