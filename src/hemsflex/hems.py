"""Physical models of the HEMS flexible assets and trajectory feasibility.

Battery with a SoC-dependent charging taper and one-way efficiency, electric
water heater as an on/off thermal load, per-step constraint bookkeeping,
PV-surplus accommodation rules with the remaining-headroom tracker, and
repair of trajectories that discharge while surplus should be absorbed.

Sign convention: positive battery power charges (consumes), negative
discharges (injects). EWH power is 0 or its nominal rating.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "EPS",
    "BatteryConfig",
    "EwhConfig",
    "HemsConfig",
    "FlexTrajectory",
    "SimulationResult",
    "CapacityTracker",
    "max_charge_power",
    "battery_step",
    "ewh_step",
    "batch_compliance",
    "batch_repair",
    "simulate",
    "update_capacity",
    "pv_accommodation",
    "repair_trajectory",
    "feasible_power_range",
    "read_draw_profile_csv",
    "write_draw_profile_csv",
]

# Slack for constraint comparisons so float round-off never flags a violation.
EPS = 1e-9


@dataclass(frozen=True)
class BatteryConfig:
    """Battery parameters: energy in kWh, power in kW, efficiency one-way."""

    capacity: float
    p_charge_max: float
    p_discharge_max: float
    soc_init: float
    efficiency: float = 0.925
    soc_min_frac: float = 0.15
    taper_knee: float = 0.8
    taper_floor: float = 0.2

    def __post_init__(self):
        if self.capacity <= 0.0 or self.p_charge_max <= 0.0 or self.p_discharge_max <= 0.0:
            raise ValueError("capacity and power ratings must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if not 0.0 <= self.soc_min_frac * self.capacity <= self.soc_init <= self.capacity:
            raise ValueError("need 0 <= soc_min <= soc_init <= capacity")
        if not 0.0 < self.taper_floor <= 1.0:
            raise ValueError("taper_floor must lie in (0, 1]")
        if not 0.0 < self.taper_knee < 1.0:
            raise ValueError("taper_knee must lie in (0, 1)")

    @property
    def soc_min(self) -> float:
        return self.soc_min_frac * self.capacity

    @property
    def soc_max(self) -> float:
        return self.capacity

    @property
    def absorption_band(self) -> float:
        """Maximum energy the battery can dedicate to PV absorption [kWh]."""
        return self.soc_max - self.soc_min


@dataclass(frozen=True)
class EwhConfig:
    """Electric water heater thermal parameters.

    thermal_capacity in kWh/degC, alpha_mag is the standing-loss admittance
    magnitude in kWh/degC per degC*h, c_p the water specific heat in
    kWh/(L*degC). draw_profile holds litres of hot water drawn per step.
    """

    p_nom: float
    theta_min: float
    theta_max: float
    theta_init: float
    thermal_capacity: float = 0.117
    alpha_mag: float = 9.42e-4
    theta_house: float = 20.0
    c_p: float = 1.163e-3
    theta_des: float = 38.0
    theta_inl: float = 17.0
    draw_profile: np.ndarray | None = None

    def __post_init__(self):
        if self.p_nom <= 0.0:
            raise ValueError("nominal EWH power must be positive")
        if self.thermal_capacity <= 0.0:
            raise ValueError("thermal capacity must be positive")
        if not self.theta_min <= self.theta_init <= self.theta_max:
            raise ValueError("need theta_min <= theta_init <= theta_max")
        if self.draw_profile is not None:
            draws = np.asarray(self.draw_profile, dtype=float)
            if draws.ndim != 1 or np.any(draws < 0.0):
                raise ValueError("draw profile must be a 1-D vector of non-negative litres")
            object.__setattr__(self, "draw_profile", draws)

    def draws(self, horizon: int) -> np.ndarray:
        """Draw profile for a horizon; missing profile means no consumption."""
        if self.draw_profile is None:
            return np.zeros(horizon)
        if self.draw_profile.shape[0] != horizon:
            raise ValueError(
                f"draw profile has {self.draw_profile.shape[0]} steps, trajectory has {horizon}"
            )
        return self.draw_profile


@dataclass(frozen=True)
class HemsConfig:
    """Bundle of the two flexible assets behind one HEMS."""

    battery: BatteryConfig
    ewh: EwhConfig

    @classmethod
    def from_json(cls, path, draw_profile: np.ndarray | None = None) -> "HemsConfig":
        path = Path(path)
        with open(path) as fh:
            doc = json.load(fh)
        try:
            battery = BatteryConfig(**doc["battery"])
            ewh_fields = dict(doc["ewh"])
        except KeyError as exc:
            raise ValueError(f"{path}: missing section {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"{path}: bad battery field ({exc})") from exc
        if draw_profile is not None:
            ewh_fields["draw_profile"] = draw_profile
        try:
            ewh = EwhConfig(**ewh_fields)
        except TypeError as exc:
            raise ValueError(f"{path}: bad ewh field ({exc})") from exc
        return cls(battery=battery, ewh=ewh)

    def to_json(self, path) -> None:
        doc = {
            "battery": {
                "capacity": self.battery.capacity,
                "p_charge_max": self.battery.p_charge_max,
                "p_discharge_max": self.battery.p_discharge_max,
                "soc_init": self.battery.soc_init,
                "efficiency": self.battery.efficiency,
                "soc_min_frac": self.battery.soc_min_frac,
                "taper_knee": self.battery.taper_knee,
                "taper_floor": self.battery.taper_floor,
            },
            "ewh": {
                "p_nom": self.ewh.p_nom,
                "theta_min": self.ewh.theta_min,
                "theta_max": self.ewh.theta_max,
                "theta_init": self.ewh.theta_init,
                "thermal_capacity": self.ewh.thermal_capacity,
                "alpha_mag": self.ewh.alpha_mag,
                "theta_house": self.ewh.theta_house,
                "c_p": self.ewh.c_p,
                "theta_des": self.ewh.theta_des,
                "theta_inl": self.ewh.theta_inl,
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class FlexTrajectory:
    """One flexibility offer: per-step battery power and EWH power [kW]."""

    p_bat: np.ndarray
    p_ewh: np.ndarray

    def __post_init__(self):
        p_bat = np.asarray(self.p_bat, dtype=float)
        p_ewh = np.asarray(self.p_ewh, dtype=float)
        if p_bat.ndim != 1 or p_bat.shape != p_ewh.shape or p_bat.size == 0:
            raise ValueError("p_bat and p_ewh must be matching non-empty 1-D vectors")
        object.__setattr__(self, "p_bat", p_bat)
        object.__setattr__(self, "p_ewh", p_ewh)

    @property
    def horizon(self) -> int:
        return self.p_bat.shape[0]

    @property
    def combined(self) -> np.ndarray:
        """Net HEMS deviation per step: battery plus EWH power."""
        return self.p_bat + self.p_ewh

    def window(self, start: int, stop: int) -> "FlexTrajectory":
        return FlexTrajectory(self.p_bat[start:stop].copy(), self.p_ewh[start:stop].copy())

    def as_vector(self) -> np.ndarray:
        """Flat [p_bat | p_ewh] layout used by the boundary model."""
        return np.concatenate([self.p_bat, self.p_ewh])


@dataclass
class SimulationResult:
    """Stepped states plus the per-step violation bookkeeping.

    `violations` maps constraint names (soc_max, soc_min, temp, charge_rate)
    to boolean per-step flags; `penalty` counts the raised flags, so
    penalty == 0 exactly when no constraint was violated anywhere.
    """

    soc: np.ndarray
    theta: np.ndarray
    penalty: int
    violations: dict[str, np.ndarray]

    @property
    def feasible(self) -> bool:
        return self.penalty == 0


@dataclass
class CapacityTracker:
    """Running estimate of the PV-absorption headroom the battery is supposed
    to keep available [kWh]. Starts at the full SoC band, is consumed during
    surplus steps (charge-rate limited) and recovers at the discharge rate
    during surplus-free steps, never exceeding the band."""

    capacity: float
    band: float

    @classmethod
    def fresh(cls, cfg: BatteryConfig) -> "CapacityTracker":
        return cls(capacity=cfg.absorption_band, band=cfg.absorption_band)


def max_charge_power(soc: float, cfg: BatteryConfig) -> float:
    """SoC-dependent charging limit: nominal up to the taper knee, then a
    linear descent to the floor fraction of nominal at full capacity."""
    if not -EPS <= soc <= cfg.capacity + EPS:
        raise ValueError(f"soc {soc} outside [0, {cfg.capacity}]")
    return _charge_limit(soc, cfg)


def _charge_limit(soc, cfg: BatteryConfig):
    """Taper evaluated on SoC clipped into [0, capacity]; works elementwise."""
    knee_soc = cfg.taper_knee * cfg.capacity
    floor_power = cfg.taper_floor * cfg.p_charge_max
    s = np.minimum(np.maximum(soc, 0.0), cfg.capacity)
    return np.where(
        s <= knee_soc,
        cfg.p_charge_max,
        cfg.p_charge_max + (s - knee_soc) / (cfg.capacity - knee_soc) * (floor_power - cfg.p_charge_max),
    )


def battery_step(soc: float, p_bat: float, dt: float, cfg: BatteryConfig) -> float:
    """One energy-balance step: efficiency applies one-way, on the flow side."""
    if p_bat > 0.0:
        return soc + cfg.efficiency * p_bat * dt
    if p_bat < 0.0:
        return soc + p_bat * dt / cfg.efficiency
    return soc


def ewh_step(theta: float, p_ewh: float, v: float, dt: float, cfg: EwhConfig) -> float:
    """One tank-temperature step: standing losses toward the house temperature,
    draw replacement losses, and the heating element input."""
    return theta + (dt / cfg.thermal_capacity) * (
        -cfg.alpha_mag * (theta - cfg.theta_house)
        - cfg.c_p * v * (cfg.theta_des - cfg.theta_inl)
        + p_ewh
    )


def _absorption(surplus_h, p_ewh_h, capacity, dt, cfg: BatteryConfig):
    """Surplus power the battery is supposed to absorb this step: the surplus
    net of EWH consumption, limited by the nominal charge rate and by the
    remaining tracker capacity. Works on scalars and on scenario vectors."""
    net = np.maximum(0.0, surplus_h - p_ewh_h)
    supposed = np.minimum(np.minimum(net, cfg.p_charge_max), np.maximum(capacity, 0.0) / dt)
    return np.where(surplus_h > 0.0, supposed, 0.0)


def update_capacity(
    tracker: CapacityTracker, surplus_h: float, p_ewh_h: float, cfg: BatteryConfig, dt: float
) -> CapacityTracker:
    """Advance the headroom tracker by one step.

    Surplus step: decrease by the net surplus energy, charge-rate limited,
    floored at zero. Surplus-free step: recover at the discharge rate, capped
    at the full band.
    """
    if surplus_h > 0.0:
        net = max(0.0, surplus_h - p_ewh_h)
        decrement = min(net, cfg.p_charge_max) * dt
        capacity = max(0.0, tracker.capacity - decrement)
    else:
        capacity = min(tracker.capacity + cfg.p_discharge_max * dt, tracker.band)
    return CapacityTracker(capacity=capacity, band=tracker.band)


class _Step(NamedTuple):
    """State and per-rule flags of (P, S) lanes right after one step."""

    discharge: np.ndarray
    charge_rate: np.ndarray
    soc_max: np.ndarray
    soc_min: np.ndarray
    temp: np.ndarray
    soc: np.ndarray
    theta: np.ndarray

    @property
    def fault(self) -> np.ndarray:
        """Lanes with any constraint penalty this step."""
        return self.charge_rate | self.soc_max | self.soc_min | self.temp[:, None]


def _lane_steps(p_bat, p_ewh, surplus, draws, cfg: HemsConfig, dt: float):
    """Step P trajectories through S surplus rows at once, yielding one
    `_Step` per horizon step.

    p_bat and p_ewh are (P, T), surplus is (S, T) and draws (T,). Lane (p, s)
    is trajectory p under surplus row s: the battery absorbs the supposed PV
    surplus on top of the trajectory's own schedule, so a trajectory that has
    not kept headroom free shows up as a soc_max violation, and combined
    charging beyond the tapered limit as a charge_rate violation. Tank
    temperature does not depend on the surplus, so it is a (P,) vector. Every
    lane runs the scalar helpers' arithmetic in the same order, so results do
    not depend on how lanes are batched.
    """
    bat, ewh = cfg.battery, cfg.ewh
    lanes = (p_bat.shape[0], surplus.shape[0])
    soc = np.full(lanes, bat.soc_init)
    capacity = np.full(lanes, bat.absorption_band)
    theta = np.full(p_bat.shape[0], ewh.theta_init)
    for h in range(p_bat.shape[1]):
        sur = surplus[:, h]
        pb = p_bat[:, h, None]
        pe = p_ewh[:, h, None]
        absorb = _absorption(sur, pe, capacity, dt, bat)
        p_eff = pb + absorb
        charge_rate = p_eff > _charge_limit(soc, bat) + EPS
        soc = soc + np.where(p_eff > 0.0, bat.efficiency * p_eff * dt, p_eff * dt / bat.efficiency)
        theta = ewh_step(theta, p_ewh[:, h], draws[h], dt, ewh)
        yield _Step(
            discharge=(absorb > EPS) & (pb < -EPS),
            charge_rate=charge_rate,
            soc_max=soc > bat.soc_max + EPS,
            soc_min=soc < bat.soc_min - EPS,
            temp=(theta < ewh.theta_min - EPS) | (theta > ewh.theta_max + EPS),
            soc=soc,
            theta=theta,
        )
        net = np.maximum(0.0, sur - pe)
        capacity = np.where(
            sur > 0.0,
            np.maximum(0.0, capacity - np.minimum(net, bat.p_charge_max) * dt),
            np.minimum(capacity + bat.p_discharge_max * dt, bat.absorption_band),
        )


def batch_compliance(
    p_bat: np.ndarray,
    p_ewh: np.ndarray,
    net_load: np.ndarray,
    draws: np.ndarray,
    cfg: HemsConfig,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Screen trajectories against S net-load rows at once.

    p_bat and p_ewh are one trajectory's (T,) vectors or a population's (P, T)
    matrices. Returns (zero_penalty, accommodation_ok): boolean vectors of
    length S for one trajectory, (P, S) matrices for a population. Each entry
    equals `simulate(...).penalty == 0` and `pv_accommodation(...)[0]` for that
    trajectory and the row's surplus.
    """
    p_bat = np.asarray(p_bat, dtype=float)
    p_ewh = np.asarray(p_ewh, dtype=float)
    net_load = np.asarray(net_load, dtype=float)
    draws = np.asarray(draws, dtype=float)
    single = p_bat.ndim == 1
    if single:
        p_bat, p_ewh = p_bat[None], p_ewh[None]
    count, horizon = net_load.shape
    if p_bat.ndim != 2 or p_ewh.shape != p_bat.shape or p_bat.shape[1] != horizon or draws.shape != (horizon,):
        raise ValueError("trajectory, draw profile, and scenario horizons differ")

    zero_penalty = np.ones((p_bat.shape[0], count), dtype=bool)
    accommodation_ok = np.ones((p_bat.shape[0], count), dtype=bool)
    for step in _lane_steps(p_bat, p_ewh, np.maximum(0.0, -net_load), draws, cfg, dt):
        zero_penalty &= ~step.fault
        accommodation_ok &= ~step.discharge
    if single:
        return zero_penalty[0], accommodation_ok[0]
    return zero_penalty, accommodation_ok


def _surplus_row(surplus, horizon: int) -> np.ndarray:
    surplus = np.asarray(surplus, dtype=float)
    if surplus.shape != (horizon,):
        raise ValueError(f"surplus has shape {surplus.shape}, trajectory horizon is {horizon}")
    return surplus


def simulate(
    traj: FlexTrajectory,
    surplus: np.ndarray,
    cfg: HemsConfig,
    dt: float,
    draws: np.ndarray | None = None,
) -> SimulationResult:
    """Step both assets through the horizon and flag constraint violations
    per step (see `_lane_steps` for the rules)."""
    horizon = traj.horizon
    surplus = _surplus_row(surplus, horizon)
    if draws is None:
        draws = cfg.ewh.draws(horizon)
    else:
        draws = np.asarray(draws, dtype=float)
        if draws.shape != (horizon,):
            raise ValueError(f"draw profile has shape {draws.shape}, trajectory horizon is {horizon}")

    flags = {
        name: np.zeros(horizon, dtype=bool) for name in ("soc_max", "soc_min", "temp", "charge_rate")
    }
    soc_path = np.empty(horizon)
    theta_path = np.empty(horizon)
    steps = _lane_steps(traj.p_bat[None], traj.p_ewh[None], surplus[None], draws, cfg, dt)
    for h, step in enumerate(steps):
        flags["soc_max"][h] = step.soc_max[0, 0]
        flags["soc_min"][h] = step.soc_min[0, 0]
        flags["temp"][h] = step.temp[0]
        flags["charge_rate"][h] = step.charge_rate[0, 0]
        soc_path[h] = step.soc[0, 0]
        theta_path[h] = step.theta[0]

    penalty = int(sum(f.sum() for f in flags.values()))
    return SimulationResult(soc=soc_path, theta=theta_path, penalty=penalty, violations=flags)


def pv_accommodation(
    traj: FlexTrajectory, surplus: np.ndarray, cfg: HemsConfig, dt: float
) -> tuple[bool, np.ndarray]:
    """Customer-preference check: no discharging while the battery is supposed
    to absorb surplus. Returns (ok, per-step violation flags)."""
    surplus = _surplus_row(surplus, traj.horizon)
    # The rule never reads the tank, so no draw profile is needed.
    steps = _lane_steps(traj.p_bat[None], traj.p_ewh[None], surplus[None], np.zeros(traj.horizon), cfg, dt)
    flags = np.array([step.discharge[0, 0] for step in steps], dtype=bool)
    return not bool(flags.any()), flags


def batch_repair(
    p_bat: np.ndarray, p_ewh: np.ndarray, surplus: np.ndarray, cfg: HemsConfig, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """`repair_trajectory` for P trajectories, given as (P, T) matrices,
    against one surplus row.

    Returns (repaired p_bat, valid). Row p of the repaired matrix has battery
    power raised to zero wherever trajectory p discharges while the battery is
    supposed to absorb surplus. valid[p] is False where the trajectory has a
    constraint penalty under this surplus, which repair does not fix; such rows
    come back unchanged.
    """
    p_bat = np.asarray(p_bat, dtype=float)
    p_ewh = np.asarray(p_ewh, dtype=float)
    if p_bat.ndim != 2 or p_ewh.shape != p_bat.shape:
        raise ValueError("p_bat and p_ewh must be matching (P, T) matrices")
    horizon = p_bat.shape[1]
    surplus = _surplus_row(surplus, horizon)
    valid = np.ones(p_bat.shape[0], dtype=bool)
    discharge = np.zeros(p_bat.shape, dtype=bool)
    steps = _lane_steps(p_bat, p_ewh, surplus[None], cfg.ewh.draws(horizon), cfg, dt)
    for h, step in enumerate(steps):
        valid &= ~step.fault[:, 0]
        discharge[:, h] = step.discharge[:, 0]
    return np.where(discharge & valid[:, None], 0.0, p_bat), valid


def repair_trajectory(
    traj: FlexTrajectory, surplus: np.ndarray, cfg: HemsConfig, dt: float
) -> FlexTrajectory:
    """Fix a trajectory whose only fault is discharging during surplus steps.

    Battery power is raised to zero at the offending steps, so the battery's
    actual flow there becomes exactly the supposed surplus absorption. Defined
    only for trajectories that are otherwise violation-free; anything else is
    rejected.
    """
    repaired, valid = batch_repair(traj.p_bat[None], traj.p_ewh[None], surplus, cfg, dt)
    if not valid[0]:
        raise ValueError(
            "repair is defined only for trajectories whose sole fault is the "
            f"surplus-accommodation rule (penalty {simulate(traj, surplus, cfg, dt).penalty})"
        )
    if np.array_equal(repaired[0], traj.p_bat):
        return traj
    return FlexTrajectory(p_bat=repaired[0], p_ewh=traj.p_ewh.copy())


def feasible_power_range(
    soc: float, cfg: HemsConfig, dt: float, absorb: float = 0.0
) -> tuple[float, float]:
    """Battery-power interval keeping this single step violation-free, given
    the current SoC and the surplus power the battery must absorb on top."""
    bat = cfg.battery
    hi = min(
        bat.p_charge_max,
        float(_charge_limit(soc, bat)) - absorb,
        (bat.soc_max - soc) / (bat.efficiency * dt) - absorb,
    )
    lo = max(-bat.p_discharge_max, -(soc - bat.soc_min) * bat.efficiency / dt - absorb)
    if absorb > EPS:
        lo = max(lo, 0.0)
    return lo, hi


def read_draw_profile_csv(path) -> np.ndarray:
    """Read litres-per-step rows from CSV `h,liters`."""
    path = Path(path)
    rows: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or {"h", "liters"} - set(reader.fieldnames):
            raise ValueError(f"{path}: expected header h,liters")
        for row in reader:
            rows.append((int(row["h"]), float(row["liters"])))
    if not rows:
        raise ValueError(f"{path}: no draw rows")
    rows.sort()
    return np.array([litres for _, litres in rows], dtype=float)


def write_draw_profile_csv(path, draws: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "liters"])
        for h, litres in enumerate(np.asarray(draws, dtype=float), start=1):
            writer.writerow([h, f"{litres:g}"])
