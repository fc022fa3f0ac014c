"""Physical models of the HEMS flexible assets and trajectory feasibility.

Battery with a SoC-dependent charging taper and one-way efficiency, electric
water heater as an on/off thermal load, PV-surplus accommodation rules, and
repair of trajectories that discharge while surplus should be absorbed. One
lane-batched kernel, `_lane_steps`, steps every rule; `analysis` restates them
on purpose as an independent scalar oracle. The kernel is step-major: it
holds each step's lanes as one (P, S) plane and steps in blocks of planes,
each step where some scenario has PV surplus on its own, and the surplus-free
runs between them, where SoC is a plain running sum, up to `_BLOCK_STEPS` (8)
steps at a time, which bounds its memory.

Repair rides on the screen: `screen_with_repair` appends the repair's surplus
envelope as one more surplus row, so a single kernel pass gives the (P, S)
verdicts and the repaired rows. The swarm makes at most two passes per
generation: this one, and a `batch_compliance` re-screen of the rows it
repaired.

Sign convention: positive battery power charges (consumes), negative
discharges (injects). EWH power is 0 or its nominal rating.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._inputs import build, finite, json_object, read_table, whole
from .scenarios import pv_surplus

__all__ = [
    "EPS",
    "BatteryConfig",
    "EwhConfig",
    "HemsConfig",
    "FlexTrajectory",
    "SimulationResult",
    "ewh_step",
    "batch_compliance",
    "screen_with_repair",
    "simulate",
    "pv_accommodation",
    "repair_trajectory",
    "feasible_power_range",
    "read_draw_profile_csv",
    "write_draw_profile_csv",
]

# Slack for constraint comparisons so float round-off never flags a violation.
EPS = 1e-9


def _check_finite(section) -> None:
    """Every field of a parameter section but the draw profile is `finite`."""
    for f in fields(section):
        if f.name != "draw_profile":
            finite(f"{type(section).__name__}.{f.name}", getattr(section, f.name))


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
        _check_finite(self)
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
    def knee_soc(self) -> float:
        """SoC above which the charging limit tapers [kWh]."""
        return self.taper_knee * self.capacity

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
        _check_finite(self)
        if self.p_nom <= 0.0:
            raise ValueError("nominal EWH power must be positive")
        if self.thermal_capacity <= 0.0:
            raise ValueError("thermal capacity must be positive")
        if not self.theta_min <= self.theta_init <= self.theta_max:
            raise ValueError("need theta_min <= theta_init <= theta_max")
        if self.draw_profile is not None:
            draws = np.asarray(self.draw_profile, dtype=float)
            if draws.ndim != 1 or not np.all(np.isfinite(draws)) or np.any(draws < 0.0):
                raise ValueError("draw profile must be a 1-D vector of finite non-negative litres")
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
        doc = json_object(str(path), path.read_text())
        unknown = sorted(set(doc) - {"battery", "ewh"})
        if unknown:
            raise ValueError(f"{path}: unknown key {unknown[0]!r}")
        if isinstance(doc.get("ewh"), dict) and "draw_profile" in doc["ewh"]:
            raise ValueError(f"{path}: unknown key 'ewh.draw_profile'; the draw profile is read from its own CSV")
        return cls(
            battery=build(f"{path}: battery", BatteryConfig, doc.get("battery")),
            ewh=build(f"{path}: ewh", EwhConfig, doc.get("ewh"), draw_profile=draw_profile),
        )

    def to_json(self, path) -> None:
        """Write both sections field by field; the draw profile lives in its own CSV."""
        doc = {
            name: {f.name: getattr(section, f.name) for f in fields(section) if f.name != "draw_profile"}
            for name, section in (("battery", self.battery), ("ewh", self.ewh))
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


def _charge_limiter(cfg: BatteryConfig):
    """SoC-dependent charging limit: nominal up to the taper knee, then a
    linear descent to the floor fraction of nominal at full capacity.
    Returns limit(soc), which is evaluated on SoC clipped into [0, capacity]
    and works elementwise; its constants are bound once here."""
    p_charge_max, capacity, knee_soc = cfg.p_charge_max, cfg.capacity, cfg.knee_soc
    taper_span = capacity - knee_soc
    taper_drop = cfg.taper_floor * p_charge_max - p_charge_max

    def limit(soc):
        s = np.minimum(np.maximum(soc, 0.0), capacity)
        return np.where(s <= knee_soc, p_charge_max, p_charge_max + (s - knee_soc) / taper_span * taper_drop)

    return limit


def _charge_limit(soc, cfg: BatteryConfig):
    """The charging limit at `soc`, from a limiter bound for this one call."""
    return _charge_limiter(cfg)(soc)


def ewh_step(theta: float, p_ewh: float, v: float, dt: float, cfg: EwhConfig) -> float:
    """One tank-temperature step: standing losses toward the house temperature,
    draw replacement losses, and the heating element input."""
    return theta + (dt / cfg.thermal_capacity) * (
        -cfg.alpha_mag * (theta - cfg.theta_house)
        - cfg.c_p * v * (cfg.theta_des - cfg.theta_inl)
        + p_ewh
    )


def _absorption(surplus_h, net, capacity, dt, cfg: BatteryConfig):
    """Surplus power the battery is supposed to absorb this step: the surplus
    net of EWH consumption (`net`), limited by the nominal charge rate and by
    the remaining tracker capacity. Works elementwise on lane arrays."""
    supposed = np.minimum(np.minimum(net, cfg.p_charge_max), np.maximum(capacity, 0.0) / dt)
    return np.where(surplus_h > 0.0, supposed, 0.0)


# Longest surplus-free run that `_lane_steps` steps as one block. A block
# holds (R + 1, P, S) SoC values and a few (R, P, S) temporaries, so the cap
# bounds the kernel's memory: a 30 x 100 lane screen of the reference day
# peaks at 1.5 MB with it and at 5.1 MB without it.
_BLOCK_STEPS = 8


class _Block(NamedTuple):
    """State and per-rule flags of (P, S) lanes over the horizon steps
    `steps`, stacked step-major: one (P, S) plane per step on a leading step
    axis of length R.

    The battery arrays are (R, P, S), or (R, P, 1) where a trajectory's lanes
    are alike: before the first surplus step, and `discharge` on a
    surplus-free run, where nothing is absorbed and it is all False. Tank
    temperature does not depend on the surplus, so `temp` and `theta` are
    (R, P). `charge_rate` may be a read-only broadcast view.
    """

    steps: slice
    discharge: np.ndarray
    charge_rate: np.ndarray
    soc_max: np.ndarray
    soc_min: np.ndarray
    temp: np.ndarray
    soc: np.ndarray
    theta: np.ndarray

    @property
    def fault(self) -> np.ndarray:
        """Lanes with any constraint penalty at each step of the block."""
        return self.charge_rate | self.soc_max | self.soc_min | self.temp[:, :, None]


def _soc_increment(p_eff, cfg: BatteryConfig, dt: float):
    """SoC change of one step of battery flow, efficiency on the flow side."""
    return np.where(p_eff > 0.0, cfg.efficiency * p_eff * dt, p_eff * dt / cfg.efficiency)


def _lane_steps(p_bat, p_ewh, surplus, draws, cfg: HemsConfig, dt: float):
    """Step P trajectories through S surplus rows at once, yielding `_Block`s
    that cover the horizon in order.

    p_bat and p_ewh are (P, T), surplus is (S, T) and draws (T,). Lane (p, s)
    is trajectory p under surplus row s: the battery absorbs the supposed PV
    surplus on top of the trajectory's own schedule, so a trajectory that has
    not kept headroom free shows up as a soc_max violation, and combined
    charging beyond the tapered limit as a charge_rate violation. The
    absorption headroom starts at the full SoC band, is consumed by the net
    surplus energy during surplus steps (charge-rate limited, floored at zero)
    and recovers at the discharge rating otherwise, capped at the band.

    The inputs are transposed once to step-major (T, P) and (T, S), so each
    step reads and writes contiguous planes. The schedule follows the
    surplus. A step where some row has surplus is active and is one block of
    its own, stepped lane by lane. Between active steps nothing is absorbed,
    so a lane's SoC increment depends only on its trajectory: a run of up to
    `_BLOCK_STEPS` such steps is one block, whose SoC path is R sequential
    `np.add` calls, one (P, S) plane each, and whose flags are taken on the
    whole block, while the headroom recovers once per step. When no lane of
    such a block starts a step above the taper knee, the charging limit is
    the nominal rate in every lane, so its charge-rate flags are taken once
    per trajectory on (R, P, 1) and broadcast. An active step whose lanes all
    start at or below the knee compares with the nominal rate as well, so the
    tapered limit is evaluated only at steps and blocks that reach the knee.
    Both tests are `max(initial=-inf) <= knee_soc`, which a NaN start fails,
    as it fails `s <= knee_soc` in the limiter. Before the first active step
    the lanes of a trajectory are alike, so SoC and headroom stay (P, 1). The
    tank is stepped once over the horizon at width P.

    Every lane runs the same elementwise arithmetic, in the same order as the
    scalar route in `analysis`, so results do not depend on how lanes or steps
    are batched.
    """
    bat, ewh = cfg.battery, cfg.ewh
    count, horizon = p_bat.shape
    p_bat_t = np.ascontiguousarray(p_bat.T)
    p_ewh_t = np.ascontiguousarray(p_ewh.T)
    surplus_t = np.ascontiguousarray(surplus.T)
    theta = np.empty((horizon, count))
    level = np.full(count, ewh.theta_init)
    for h in range(horizon):
        level = theta[h] = ewh_step(level, p_ewh_t[h], draws[h], dt, ewh)
    temp = (theta < ewh.theta_min - EPS) | (theta > ewh.theta_max + EPS)

    charge_limit = _charge_limiter(bat)
    knee_soc, nominal_limit = bat.knee_soc, bat.p_charge_max + EPS
    band, recovery = bat.absorption_band, bat.p_discharge_max * dt
    soc_hi, soc_lo = bat.soc_max + EPS, bat.soc_min - EPS
    # Battery power plus the zero absorption of a surplus-free step (the sum
    # turns -0.0 into 0.0, as the active step does), and its SoC increment.
    p_free = p_bat_t[:, :, None] + 0.0
    increment = _soc_increment(p_free, bat, dt)
    active = (surplus > 0.0).any(axis=0)
    soc = np.full((count, 1), bat.soc_init)
    capacity = np.full((count, 1), band)
    h = 0
    while h < horizon:
        stop = h + 1
        if active[h]:
            sur = surplus_t[h]
            pb = p_bat_t[h, :, None]
            net = np.maximum(0.0, sur - p_ewh_t[h, :, None])
            absorb = _absorption(sur, net, capacity, dt, bat)
            p_eff = pb + absorb
            if soc.max(initial=-np.inf) <= knee_soc:
                charge_rate = (p_eff > nominal_limit)[None]
            else:
                charge_rate = (p_eff > charge_limit(soc) + EPS)[None]
            soc = soc + _soc_increment(p_eff, bat, dt)
            path = soc[None]
            discharge = ((absorb > EPS) & (pb < -EPS))[None]
            capacity = np.where(
                sur > 0.0,
                np.maximum(0.0, capacity - np.minimum(net, bat.p_charge_max) * dt),
                np.minimum(capacity + recovery, band),
            )
        else:
            while stop < min(h + _BLOCK_STEPS, horizon) and not active[stop]:
                stop += 1
            running = np.empty((stop - h + 1,) + soc.shape)
            running[0] = soc
            for k in range(stop - h):
                np.add(running[k], increment[h + k], out=running[k + 1])
            path = running[1:]
            starts = running[:-1]
            if starts.max(initial=-np.inf) <= knee_soc:
                charge_rate = np.broadcast_to(p_free[h:stop] > nominal_limit, path.shape)
            else:
                charge_rate = p_free[h:stop] > charge_limit(starts) + EPS
            soc = running[-1].copy()
            discharge = np.zeros((stop - h, count, 1), dtype=bool)
            for _ in range(stop - h):
                capacity = np.minimum(capacity + recovery, band)
        yield _Block(
            steps=slice(h, stop),
            discharge=discharge,
            charge_rate=charge_rate,
            soc_max=path > soc_hi,
            soc_min=path < soc_lo,
            temp=temp[h:stop],
            soc=path,
            theta=theta[h:stop],
        )
        h = stop


def _check_population(p_bat, p_ewh, rows, draws):
    """The inputs as float arrays, once their horizons agree: (P, T)
    trajectories, (S, T) rows and a (T,) draw profile."""
    p_bat, p_ewh, rows, draws = (np.asarray(a, dtype=float) for a in (p_bat, p_ewh, rows, draws))
    if not (
        p_bat.ndim == rows.ndim == 2
        and p_ewh.shape == p_bat.shape
        and draws.shape == (p_bat.shape[1],) == rows.shape[1:]
    ):
        raise ValueError("trajectory, draw profile, and scenario horizons differ")
    return p_bat, p_ewh, rows, draws


def _screen(p_bat, p_ewh, surplus, draws, cfg: HemsConfig, dt: float, last_discharge=None):
    """One `_lane_steps` pass reduced to (zero_penalty, accommodation_ok),
    boolean (P, S) matrices. Given a (T, P) boolean array, `last_discharge`
    also receives the per-step discharge flags of the last surplus row."""
    count = p_bat.shape[0]
    zero_penalty = np.ones((count, surplus.shape[0]), dtype=bool)
    accommodation_ok = np.ones((count, surplus.shape[0]), dtype=bool)
    for block in _lane_steps(p_bat, p_ewh, surplus, draws, cfg, dt):
        zero_penalty &= ~block.fault.any(axis=0)
        accommodation_ok &= ~block.discharge.any(axis=0)
        if last_discharge is not None:
            last_discharge[block.steps] = block.discharge[:, :, -1]
    return zero_penalty, accommodation_ok


def batch_compliance(
    p_bat: np.ndarray,
    p_ewh: np.ndarray,
    net_load: np.ndarray,
    draws: np.ndarray,
    cfg: HemsConfig,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Screen trajectories against S net-load rows at once.

    p_bat and p_ewh are a population's (P, T) matrices; one trajectory is a
    (1, T) row. Returns (zero_penalty, accommodation_ok), boolean (P, S)
    matrices. Each entry equals `simulate(...).penalty == 0` and
    `pv_accommodation(...)[0]` for that trajectory and the row's surplus.
    """
    p_bat, p_ewh, net_load, draws = _check_population(p_bat, p_ewh, net_load, draws)
    return _screen(p_bat, p_ewh, pv_surplus(net_load), draws, cfg, dt)


def screen_with_repair(
    p_bat: np.ndarray,
    p_ewh: np.ndarray,
    net_load: np.ndarray,
    envelope: np.ndarray,
    draws: np.ndarray,
    cfg: HemsConfig,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`batch_compliance` and the repair of every row against a surplus
    envelope, in one kernel pass.

    The envelope, a (T,) surplus row, is stepped as surplus row S + 1 next to
    the S net-load rows. Returns (zero_penalty, accommodation_ok, repaired,
    valid): the first two are `batch_compliance`'s (P, S) verdicts. Row p of
    the (P, T) `repaired` has battery power raised to zero wherever trajectory
    p discharges while the battery is supposed to absorb the envelope's
    surplus. valid[p] is False where the trajectory has a constraint penalty
    under the envelope, which repair does not fix; such rows come back
    unchanged. A lane's result depends only on its own trajectory and
    surplus row, so the extra row leaves the verdicts bit for bit as they are.
    """
    p_bat, p_ewh, net_load, draws = _check_population(p_bat, p_ewh, net_load, draws)
    envelope = _surplus_row(envelope, p_bat.shape[1])
    surplus = np.concatenate([pv_surplus(net_load), envelope[None]])
    discharge = np.zeros(p_bat.shape[::-1], dtype=bool)
    zero_penalty, accommodation_ok = _screen(p_bat, p_ewh, surplus, draws, cfg, dt, discharge)
    valid = zero_penalty[:, -1]
    repaired = np.where(discharge.T & valid[:, None], 0.0, p_bat)
    return zero_penalty[:, :-1], accommodation_ok[:, :-1], repaired, valid


def _surplus_row(surplus, horizon: int) -> np.ndarray:
    surplus = np.asarray(surplus, dtype=float)
    if surplus.shape != (horizon,):
        raise ValueError(f"surplus has shape {surplus.shape}, trajectory horizon is {horizon}")
    return surplus


def simulate(traj: FlexTrajectory, surplus: np.ndarray, cfg: HemsConfig, dt: float) -> SimulationResult:
    """Step both assets through the horizon and flag constraint violations
    per step (see `_lane_steps` for the rules)."""
    horizon = traj.horizon
    surplus = _surplus_row(surplus, horizon)
    draws = cfg.ewh.draws(horizon)

    flags = {
        name: np.zeros(horizon, dtype=bool) for name in ("soc_max", "soc_min", "temp", "charge_rate")
    }
    soc_path = np.empty(horizon)
    theta_path = np.empty(horizon)
    for block in _lane_steps(traj.p_bat[None], traj.p_ewh[None], surplus[None], draws, cfg, dt):
        flags["soc_max"][block.steps] = block.soc_max[:, 0, 0]
        flags["soc_min"][block.steps] = block.soc_min[:, 0, 0]
        flags["temp"][block.steps] = block.temp[:, 0]
        flags["charge_rate"][block.steps] = block.charge_rate[:, 0, 0]
        soc_path[block.steps] = block.soc[:, 0, 0]
        theta_path[block.steps] = block.theta[:, 0]

    penalty = int(sum(f.sum() for f in flags.values()))
    return SimulationResult(soc=soc_path, theta=theta_path, penalty=penalty, violations=flags)


def pv_accommodation(
    traj: FlexTrajectory, surplus: np.ndarray, cfg: HemsConfig, dt: float
) -> tuple[bool, np.ndarray]:
    """Customer-preference check: no discharging while the battery is supposed
    to absorb surplus. Returns (ok, per-step violation flags)."""
    surplus = _surplus_row(surplus, traj.horizon)
    # The rule never reads the tank, so no draw profile is needed.
    blocks = _lane_steps(traj.p_bat[None], traj.p_ewh[None], surplus[None], np.zeros(traj.horizon), cfg, dt)
    flags = np.concatenate([block.discharge[:, 0, 0] for block in blocks])
    return not bool(flags.any()), flags


def repair_trajectory(
    traj: FlexTrajectory, surplus: np.ndarray, cfg: HemsConfig, dt: float
) -> FlexTrajectory:
    """Fix a trajectory whose only fault is discharging during surplus steps.

    Battery power is raised to zero at the offending steps, so the battery's
    actual flow there becomes exactly the supposed surplus absorption. Defined
    only for trajectories that are otherwise violation-free; anything else is
    rejected. This is `screen_with_repair` for one row, with no net-load rows
    and `surplus` as the envelope.
    """
    horizon = traj.horizon
    _, _, repaired, valid = screen_with_repair(
        traj.p_bat[None], traj.p_ewh[None], np.empty((0, horizon)), surplus, cfg.ewh.draws(horizon), cfg, dt
    )
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
    """Read litres-per-step rows from CSV under the header `h,liters`; the
    steps h must run exactly 1..T, each once."""
    path, header, table = read_table(path)
    if header != ["h", "liters"]:
        raise ValueError(f"{path}: expected header h,liters")
    if not table.shape[0]:
        raise ValueError(f"{path}: no draw rows")
    steps = whole(path, "h", table[:, 0])
    order = np.argsort(steps, kind="stable")
    if steps[order].tolist() != list(range(1, len(steps) + 1)):
        raise ValueError(f"{path}: steps h must run 1..{len(steps)}, each once")
    if (table[:, 1] < 0.0).any():
        raise ValueError(f"{path}: liters must not be negative")
    return table[order, 1]


def write_draw_profile_csv(path, draws: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "liters"])
        for h, litres in enumerate(np.asarray(draws, dtype=float), start=1):
            writer.writerow([h, f"{litres:g}"])
