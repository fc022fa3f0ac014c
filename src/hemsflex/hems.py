"""Physical models of the HEMS flexible assets and trajectory feasibility.

Battery with a SoC-dependent charging taper and one-way efficiency, electric
water heater as an on/off thermal load, PV-surplus accommodation rules, and
repair of trajectories that discharge while surplus should be absorbed. One
tank loop, `_tank`, and one lane-batched battery kernel, `_lane_steps`, step
every rule; `analysis` restates them on purpose as an independent scalar
oracle. The kernel is step-major: it holds each step's lanes as one (P, S)
plane and steps in blocks of planes, each step where some scenario has PV
surplus on its own, and the surplus-free runs between them, where SoC is a
plain running sum, up to `_BLOCK_STEPS` (8) steps at a time, which bounds its
memory.

Every screen is a head and a tail, split at the first surplus step: the
head, the tank and the battery before that step, is alike in every lane of a
row and is kept per row as a `ScreenPrefix`. The tank steps under the draw
profile of the config, as the oracle's does. `screen_with_repair` steps the
net-load rows' surplus envelope, their stepwise maximum surplus, as one more
surplus row, so one screen gives the (P, S) verdicts and the rows repaired
against the envelope. A row whose head faulted fails in every lane, so that
screen steps the tail only for the rows whose head passed, and its second
verdict is `compliant`, which is exact for every row. The envelope has
surplus wherever some row has, so repair changes battery power only from the
first surplus step on, and never the EWH schedule: the swarm's
`batch_compliance` re-screen of its repaired rows takes their head from that
screen and steps only the tail.

Sign convention: positive battery power charges (consumes), negative
discharges (injects). EWH power is 0 or its nominal rating.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._inputs import build, finite, finite_array, json_object, read_table, whole
from .scenarios import pv_surplus

__all__ = [
    "EPS",
    "BatteryConfig",
    "EwhConfig",
    "HemsConfig",
    "FlexTrajectory",
    "TrajectorySet",
    "ScreenPrefix",
    "SimulationResult",
    "ewh_step",
    "batch_compliance",
    "screen_with_repair",
    "simulate",
    "pv_accommodation",
    "repair_trajectory",
    "feasible_power_range",
    "read_draw_profile_csv",
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


@dataclass(frozen=True)
class FlexTrajectory:
    """One flexibility offer: finite per-step battery and EWH power [kW]."""

    p_bat: np.ndarray
    p_ewh: np.ndarray

    def __post_init__(self):
        p_bat = np.asarray(self.p_bat, dtype=float)
        p_ewh = np.asarray(self.p_ewh, dtype=float)
        if p_bat.ndim != 1 or p_bat.shape != p_ewh.shape or p_bat.size == 0:
            raise ValueError("p_bat and p_ewh must be matching non-empty 1-D vectors")
        object.__setattr__(self, "p_bat", finite_array("p_bat", p_bat))
        object.__setattr__(self, "p_ewh", finite_array("p_ewh", p_ewh))

    @property
    def horizon(self) -> int:
        return self.p_bat.shape[0]

    def as_vector(self) -> np.ndarray:
        """The [p_bat | p_ewh] row of a `TrajectorySet`."""
        return np.concatenate([self.p_bat, self.p_ewh])


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Flexibility offers as the rows of one read-only, finite (n, 2T) matrix,
    each row [p_bat | p_ewh], as the trajectory files store them. An integer
    index gives a `FlexTrajectory` of views into its row, and the boundary
    model reads `matrix` as it is. The swarm, the feasible set and the
    oracle's samplers split their own buffers of such rows at `[:horizon]`."""

    matrix: np.ndarray

    def __post_init__(self):
        # A view, so that freezing it leaves the caller's array writeable.
        matrix = np.asarray(self.matrix, dtype=float).view()
        if matrix.ndim != 2 or matrix.shape[1] < 2 or matrix.shape[1] % 2:
            raise ValueError(f"a trajectory set is an (n, 2T) matrix with T >= 1, not shape {matrix.shape}")
        finite_array("matrix", matrix)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def horizon(self) -> int:
        return self.matrix.shape[1] // 2

    @property
    def p_bat(self) -> np.ndarray:
        """(n, T) view of every row's battery power."""
        return self.matrix[:, : self.horizon]

    @property
    def p_ewh(self) -> np.ndarray:
        """(n, T) view of every row's EWH power."""
        return self.matrix[:, self.horizon :]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, i: int) -> FlexTrajectory:
        i = operator.index(i)
        return FlexTrajectory(p_bat=self.p_bat[i], p_ewh=self.p_ewh[i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def window(self, start: int, stop: int) -> "TrajectorySet":
        """Steps [start, stop) of every row, as a new set."""
        return TrajectorySet(np.concatenate((self.p_bat[:, start:stop], self.p_ewh[:, start:stop]), axis=1))

    @property
    def combined(self) -> np.ndarray:
        """(n, T) net HEMS deviation per step: battery plus EWH power."""
        return self.p_bat + self.p_ewh


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


def _tapered_limit(s, cfg: BatteryConfig):
    """The charging limit at a SoC s above the taper knee and at most the
    capacity, for a float or an array: the one taper expression, a linear
    descent from nominal at the knee to the floor fraction of nominal at
    full capacity."""
    p_charge_max, knee_soc = cfg.p_charge_max, cfg.knee_soc
    return p_charge_max + (s - knee_soc) / (cfg.capacity - knee_soc) * (cfg.taper_floor * p_charge_max - p_charge_max)


def _charge_limiter(cfg: BatteryConfig):
    """SoC-dependent charging limit: nominal up to the taper knee, then the
    taper of `_tapered_limit`. Returns limit(soc), which is evaluated on SoC
    clipped into [0, capacity] and works elementwise."""
    p_charge_max, capacity, knee_soc = cfg.p_charge_max, cfg.capacity, cfg.knee_soc

    def limit(soc):
        s = np.minimum(np.maximum(soc, 0.0), capacity)
        return np.where(s <= knee_soc, p_charge_max, _tapered_limit(s, cfg))

    return limit


def ewh_step(theta: float, p_ewh: float, v: float, dt: float, cfg: EwhConfig) -> float:
    """One tank-temperature step: standing losses toward the house temperature,
    draw replacement losses, and the heating element input."""
    return theta + (dt / cfg.thermal_capacity) * (
        -cfg.alpha_mag * (theta - cfg.theta_house)
        - cfg.c_p * v * (cfg.theta_des - cfg.theta_inl)
        + p_ewh
    )


# Longest surplus-free run that `_lane_steps` steps as one block. A block
# holds (R + 1, P, S) SoC values and a few (R, P, S) temporaries, so the cap
# bounds the kernel's memory: a 30 x 100 lane screen of the reference day
# peaks at 1.5 MB with it and at 5.1 MB without it.
_BLOCK_STEPS = 8


class _Block(NamedTuple):
    """SoC and charge-rate flags of (P, S) lanes over the kernel's columns
    `steps`, stacked step-major: one (P, S) plane per step on a leading step
    axis of length R.

    The arrays are (R, P, S), or (R, P, 1) where a trajectory's lanes are
    alike: before the first surplus step, `rate` on a surplus-free run that
    does not reach the taper knee, and `discharge` on a surplus-free run,
    where nothing is absorbed and it is all False. The per-step
    `charge_rate` flags are derived on demand.
    """

    steps: slice
    discharge: np.ndarray
    rate: np.ndarray
    soc: np.ndarray

    @property
    def charge_rate(self) -> np.ndarray:
        return np.broadcast_to(self.rate, self.soc.shape)


def _soc_increment(p_eff, cfg: BatteryConfig, dt: float):
    """SoC change of one step of battery flow, efficiency on the flow side."""
    return np.where(p_eff > 0.0, cfg.efficiency * p_eff * dt, p_eff * dt / cfg.efficiency)


def _tank(p_ewh, ewh: EwhConfig, dt: float) -> np.ndarray:
    """(T, P) tank temperatures after each step of P (P, T) EWH schedules,
    from `theta_init` under `ewh`'s draw profile. The tank never sees the
    surplus, so it is stepped once per trajectory, not per lane."""
    draws = ewh.draws(p_ewh.shape[1])
    theta = np.empty(p_ewh.shape[::-1])
    level = np.full(p_ewh.shape[0], ewh.theta_init)
    for h, power in enumerate(p_ewh.T):
        level = theta[h] = ewh_step(level, power, draws[h], dt, ewh)
    return theta


def _lane_steps(p_bat, p_ewh, surplus, active, cfg: HemsConfig, dt: float, soc):
    """Step the batteries of P trajectories through S surplus rows at once
    over the columns given, from the (P, 1) SoC `soc`, yielding `_Block`s
    that cover the columns in order, `steps` counted from the first.

    p_bat and p_ewh are (P, T) and surplus is (S, T); `active` is the (T,)
    mask `(surplus > 0.0).any(axis=0)`, which a screen works out once for
    its head and its tail. Lane (p, s) is
    trajectory p under surplus row s: the battery absorbs the supposed PV
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
    `np.add` calls, one (P, S) plane each. Its headroom is the running sum of
    the recovery, capped at the band once at the end: headroom that reaches
    the band stays there, so that equals capping it at every step. When no
    lane of such a block starts a step above the taper knee, the charging
    limit is the nominal rate in every lane, so its charge-rate flags are
    taken once per trajectory on (R, P, 1). An active step whose lanes all
    start at or below the knee compares with the nominal rate as well. Both
    tests are `max(initial=-inf) <= knee_soc`. In a block that does reach the
    knee, the tapered limit is evaluated only for the (step, trajectory)
    pairs whose power exceeds the floor `charge_limit(capacity) + EPS`; the
    other pairs cannot be flagged. The limiter never goes below that floor:
    it clips SoC to the capacity, and each of its rounded operations is
    monotone, so the limit falls, or stays, as SoC rises. A power at or below
    the floor passes at every SoC.
    Before the first active step the lanes of a trajectory are alike, so SoC
    and headroom stay (P, 1).

    Every lane runs the same elementwise arithmetic, in the same order as the
    scalar route in `analysis`, so results do not depend on how lanes or steps
    are batched.
    """
    bat = cfg.battery
    count, horizon = p_bat.shape
    p_bat_t = np.ascontiguousarray(p_bat.T)
    p_ewh_t = np.ascontiguousarray(p_ewh.T)
    surplus_t = np.ascontiguousarray(surplus.T)

    charge_limit = _charge_limiter(bat)
    knee_soc, nominal_limit = bat.knee_soc, bat.p_charge_max + EPS
    floor_limit = float(charge_limit(bat.capacity)) + EPS
    band, recovery = bat.absorption_band, bat.p_discharge_max * dt
    # Battery power plus the zero absorption of a surplus-free step (the sum
    # turns -0.0 into 0.0, as the active step does), and its SoC increment.
    p_free = p_bat_t[:, :, None] + 0.0
    increment = _soc_increment(p_free, bat, dt)
    capacity = np.full((count, 1), band)
    h = 0
    while h < horizon:
        stop = h + 1
        if active[h]:
            sur = surplus_t[h]
            sunny = sur > 0.0
            pb = p_bat_t[h, :, None]
            # The net surplus at the charge rate: what is supposed to be
            # absorbed, unless the headroom is smaller.
            net = np.minimum(np.maximum(0.0, sur - p_ewh_t[h, :, None]), bat.p_charge_max)
            absorb = np.where(sunny, np.minimum(net, np.maximum(capacity, 0.0) / dt), 0.0)
            p_eff = pb + absorb
            if soc.max(initial=-np.inf) <= knee_soc:
                rate = (p_eff > nominal_limit)[None]
            else:
                rate = (p_eff > charge_limit(soc) + EPS)[None]
            soc = soc + _soc_increment(p_eff, bat, dt)
            path = soc[None]
            discharge = ((absorb > EPS) & (pb < -EPS))[None]
            capacity = np.where(sunny, np.maximum(0.0, capacity - net * dt), np.minimum(capacity + recovery, band))
        else:
            while stop < min(h + _BLOCK_STEPS, horizon) and not active[stop]:
                stop += 1
            running = np.empty((stop - h + 1,) + soc.shape)
            running[0] = soc
            for k in range(stop - h):
                np.add(running[k], increment[h + k], out=running[k + 1])
            path = running[1:]
            starts = running[:-1]
            power = p_free[h:stop]
            if starts.max(initial=-np.inf) <= knee_soc:
                rate = power > nominal_limit
            else:
                rate = np.zeros(path.shape, dtype=bool)
                hard = power[:, :, 0] > floor_limit
                rate[hard] = power[hard] > charge_limit(starts[hard]) + EPS
            soc = running[-1].copy()
            discharge = np.zeros((stop - h, count, 1), dtype=bool)
            capacity = capacity + recovery
            for _ in range(stop - h - 1):
                np.add(capacity, recovery, out=capacity)
            np.minimum(capacity, band, out=capacity)
        yield _Block(steps=slice(h, stop), discharge=discharge, rate=rate, soc=path)
        h = stop


def _check_population(p_bat, p_ewh, net_load):
    """The inputs as finite float arrays, once their horizons agree: (P, T)
    trajectories and (S, T) net-load rows."""
    names, arrays = ("p_bat", "p_ewh", "net_load"), (p_bat, p_ewh, net_load)
    p_bat, p_ewh, net_load = (finite_array(n, np.asarray(a, dtype=float)) for n, a in zip(names, arrays))
    if not (p_bat.ndim == net_load.ndim == 2 and p_ewh.shape == p_bat.shape and net_load.shape[1] == p_bat.shape[1]):
        raise ValueError("trajectory and scenario horizons differ")
    return p_bat, p_ewh, net_load


class ScreenPrefix(NamedTuple):
    """The head of a screen of P rows: what it knows of them before `start`,
    the first step where some surplus row has surplus (the horizon when none
    has), where every lane of a row steps alike. `p_bat` (P, start) and
    `p_ewh` (P, T) are the battery power before `start` and the EWH schedule
    the rows were stepped on. `soc` (P, 1) is the SoC entering step `start`,
    and `fault` (P, 1) whether a step before it broke the charge rate or left
    the SoC band, or the tank left its band anywhere on the horizon. `cfg`
    and `dt` are the config and step the head was stepped under, which
    `fault` depends on. `rows` selects rows of it, as an index selects rows
    of an array."""

    start: int
    p_bat: np.ndarray
    p_ewh: np.ndarray
    soc: np.ndarray
    fault: np.ndarray
    cfg: HemsConfig
    dt: float

    def rows(self, index) -> "ScreenPrefix":
        return self._replace(**{name: getattr(self, name)[index] for name in ("p_bat", "p_ewh", "soc", "fault")})


def _surplus_steps(surplus) -> tuple[np.ndarray, int]:
    """The (T,) mask of the steps where some (S, T) surplus row is positive,
    and the first such step, or T when there is none."""
    active = (surplus > 0.0).any(axis=0)
    return active, int(active.argmax()) if active.any() else surplus.shape[1]


def _faults(blocks, lanes, cfg: HemsConfig, last_discharge=None):
    """Reduce `_lane_steps` blocks to per-lane (fault, discharge, soc) at the
    width of `lanes`, the (P, W) SoC the lanes enter with: whether some step
    broke the charge rate or left the SoC band, whether some step discharged
    during surplus, and the SoC after the last step. The band is tested once,
    on each lane's SoC extremes: finite input turns a SoC NaN only once some
    step has charged far beyond the rate, so such a lane faults either way.
    `last_discharge`, a boolean array with a row per column, also receives
    the last surplus row's per-step discharge flags."""
    soc, over_rate, discharge = lanes, np.zeros(lanes.shape, dtype=bool), np.zeros(lanes.shape, dtype=bool)
    top, bottom = np.full(lanes.shape, -np.inf), np.full(lanes.shape, np.inf)
    for block in blocks:
        over_rate |= block.rate.any(axis=0)
        discharge |= block.discharge.any(axis=0)
        np.maximum(top, block.soc.max(axis=0), out=top)
        np.minimum(bottom, block.soc.min(axis=0), out=bottom)
        soc = block.soc[-1]
        if last_discharge is not None:
            last_discharge[block.steps] = block.discharge[:, :, -1]
    bat = cfg.battery
    return over_rate | (top > bat.soc_max + EPS) | (bottom < bat.soc_min - EPS), discharge, soc


def _head(p_bat, p_ewh, surplus, active, start: int, cfg: HemsConfig, dt: float) -> ScreenPrefix:
    """The `ScreenPrefix` of P (P, T) rows: the tank over the horizon and the
    battery before the first surplus step `start`, where a row's lanes are
    alike, stepped at width (P, 1)."""
    ewh = cfg.ewh
    soc = np.full((p_bat.shape[0], 1), cfg.battery.soc_init)
    head = _lane_steps(p_bat[:, :start], p_ewh[:, :start], surplus[:, :start], active[:start], cfg, dt, soc)
    fault, _, soc = _faults(head, soc, cfg)
    theta = _tank(p_ewh, ewh, dt)
    fault |= ((theta < ewh.theta_min - EPS) | (theta > ewh.theta_max + EPS)).any(axis=0)[:, None]
    # Copies, so that a caller writing to its rows cannot pass the guard.
    return ScreenPrefix(start, p_bat[:, :start].copy(), p_ewh.copy(), soc, fault, cfg, dt)


def _tail(p_bat, p_ewh, surplus, active, soc, cfg: HemsConfig, dt: float, last_discharge=None):
    """The tail of a screen of n rows, given its columns from the first
    surplus step on: (n, U) p_bat and p_ewh, (S, U) surplus and its (U,)
    mask. The (n, S) lanes step from the head's (n, 1) SoC `soc` and the
    full headroom, as at step 0: no step of the head absorbs, and recovery
    from the full band is capped back at it. Returns the lanes' boolean
    (n, S) (fault, discharge) over the tail alone. A lane fails where its
    row's head fault or its own tail fault is set, which is exact: both are
    ORs over steps. A tail of no steps yields no block, and no flag. Given a
    (U, n) boolean array, `last_discharge` also receives the last surplus
    row's per-step discharge flags, which no step of the head sets."""
    blocks = _lane_steps(p_bat, p_ewh, surplus, active, cfg, dt, soc)
    lanes = np.broadcast_to(soc, (soc.shape[0], surplus.shape[0]))
    fault, discharge, _ = _faults(blocks, lanes, cfg, last_discharge)
    return fault, discharge


def _same_bits(a, b) -> bool:
    """Whether two float arrays hold the same shape and bits: rows with the
    same bits step alike."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _check_prefix(prefix: ScreenPrefix, p_bat, p_ewh, start: int, cfg: HemsConfig, dt: float) -> None:
    """Reject a prefix that was not taken of rows stepping as these do
    before the first surplus step, `start`, under the config object `cfg`
    at step `dt`."""
    if prefix.cfg is not cfg:
        raise ValueError("the prefix was stepped under another HemsConfig than the screen's")
    if prefix.dt != dt:
        raise ValueError(f"the prefix was stepped at dt={prefix.dt!r}, the screen at dt={dt!r}")
    if prefix.start != start:
        raise ValueError(f"the prefix's first surplus step is {prefix.start}, the net-load rows' is {start}")
    if prefix.soc.shape[0] != p_bat.shape[0]:
        raise ValueError(f"the prefix has {prefix.soc.shape[0]} rows, the screen {p_bat.shape[0]}")
    if not _same_bits(prefix.p_ewh, p_ewh):
        raise ValueError("the prefix's rows differ from the screened ones in EWH schedule")
    if not _same_bits(prefix.p_bat, p_bat[:, :start]):
        raise ValueError(f"the prefix's rows differ from the screened ones in battery power before step {start}")


def batch_compliance(
    p_bat: np.ndarray,
    p_ewh: np.ndarray,
    net_load: np.ndarray,
    cfg: HemsConfig,
    dt: float,
    *,
    prefix: ScreenPrefix | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Screen trajectories against S net-load rows at once.

    p_bat and p_ewh are a population's (P, T) matrices; one trajectory is a
    (1, T) row. Returns (zero_penalty, accommodation_ok), boolean (P, S)
    matrices. Each entry equals `simulate(...).penalty == 0` and
    `pv_accommodation(...)[0]` for that trajectory and the row's surplus,
    with the tank under `cfg`'s draw profile.

    `prefix`, when given, is the `screen_with_repair` prefix of rows that
    step as these do before the net-load rows' first surplus step: the same
    EWH schedules and the same battery power before that step, bit for bit,
    that step as the prefix's own first surplus step, and the same `cfg`
    object and `dt` as the pass that took it. The screen then resumes from
    it at that step and steps no tank, with the same results.
    A prefix that does not match raises ValueError naming the mismatch.
    """
    p_bat, p_ewh, net_load = _check_population(p_bat, p_ewh, net_load)
    surplus = pv_surplus(net_load)
    active, start = _surplus_steps(surplus)
    if prefix is None:
        prefix = _head(p_bat, p_ewh, surplus, active, start, cfg, dt)
    else:
        _check_prefix(prefix, p_bat, p_ewh, start, cfg, dt)
    fault, discharge = _tail(
        p_bat[:, start:], p_ewh[:, start:], surplus[:, start:], active[start:], prefix.soc, cfg, dt
    )
    return ~(prefix.fault | fault), ~discharge


def screen_with_repair(
    p_bat: np.ndarray,
    p_ewh: np.ndarray,
    net_load: np.ndarray,
    cfg: HemsConfig,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, ScreenPrefix]:
    """`batch_compliance` and the repair of every row against the net-load
    rows' surplus envelope, in one kernel pass.

    The envelope, the stepwise maximum of the S rows' surplus (zero when
    there is no row), is stepped as surplus row S + 1 next to them: a
    trajectory that never discharges where some row has surplus passes the
    accommodation rule in every row. Returns (zero_penalty, compliant,
    repaired, valid, prefix), where the (P, S) zero_penalty is
    `batch_compliance`'s first verdict and compliant is the AND of its two.
    Row p of the (P, T) `repaired` has battery power raised to zero wherever
    trajectory p discharges while the battery is supposed to absorb the
    envelope's surplus. valid[p] is False where the trajectory has a
    constraint penalty under the envelope, which repair does not fix; such
    rows come back unchanged. A lane's result depends only on its own
    trajectory and surplus row, so the extra row leaves the verdicts bit for
    bit as they are.

    The tail is stepped only for the rows whose head did not fault. A row
    whose head faulted has a penalty in every lane, the envelope's included,
    so it is all False in zero_penalty, compliant and valid whatever its tail
    does, and comes back unchanged; only its accommodation verdicts would
    need the tail, and they are not returned on their own.

    `prefix` is the pass's `ScreenPrefix`, taken at the first step where the
    net-load rows have surplus. Repair changes only steps where the envelope
    has surplus and never the EWH schedule, so `prefix.rows(i)` is also the
    prefix of the repaired rows i, and
    `batch_compliance(repaired[i], p_ewh[i], net_load, ..., prefix=prefix.rows(i))`
    re-screens them from that step on.
    """
    p_bat, p_ewh, net_load = _check_population(p_bat, p_ewh, net_load)
    surplus = pv_surplus(net_load)
    surplus = np.concatenate([surplus, surplus.max(axis=0, initial=0.0)[None]])
    active, start = _surplus_steps(surplus)
    prefix = _head(p_bat, p_ewh, surplus, active, start, cfg, dt)
    # A row whose head faulted fails in every lane whatever its tail does.
    live = np.flatnonzero(~prefix.fault[:, 0])
    flags = np.zeros((p_bat.shape[1] - start, live.size), dtype=bool)
    fault, discharge = _tail(
        p_bat[live, start:], p_ewh[live, start:], surplus[:, start:], active[start:], prefix.soc[live], cfg, dt, flags
    )
    zero_penalty, compliant = np.zeros((2, p_bat.shape[0], surplus.shape[0]), dtype=bool)
    zero_penalty[live] = ~fault
    compliant[live] = ~(fault | discharge)
    valid = zero_penalty[:, -1]
    discharged = np.zeros(p_bat.shape, dtype=bool)
    discharged[live, start:] = flags.T
    repaired = np.where(discharged & valid[:, None], 0.0, p_bat)
    return zero_penalty[:, :-1], compliant[:, :-1], repaired, valid, prefix


def _surplus_row(surplus, horizon: int) -> np.ndarray:
    """The argument `surplus`, a surplus row, as a finite float (T,) vector."""
    surplus = np.asarray(surplus, dtype=float)
    if surplus.shape != (horizon,):
        raise ValueError(f"surplus has shape {surplus.shape}, trajectory horizon is {horizon}")
    return finite_array("surplus", surplus)


def simulate(traj: FlexTrajectory, surplus: np.ndarray, cfg: HemsConfig, dt: float) -> SimulationResult:
    """Step both assets through the horizon and flag constraint violations
    per step (see `_lane_steps` and `_tank` for the rules)."""
    surplus = _surplus_row(surplus, traj.horizon)
    bat, ewh = cfg.battery, cfg.ewh
    theta = _tank(traj.p_ewh[None], ewh, dt)[:, 0]
    soc = np.full((1, 1), bat.soc_init)
    blocks = list(_lane_steps(traj.p_bat[None], traj.p_ewh[None], surplus[None], surplus > 0.0, cfg, dt, soc))
    soc = np.concatenate([block.soc[:, 0, 0] for block in blocks])
    flags = {
        "soc_max": soc > bat.soc_max + EPS,
        "soc_min": soc < bat.soc_min - EPS,
        "temp": (theta < ewh.theta_min - EPS) | (theta > ewh.theta_max + EPS),
        "charge_rate": np.concatenate([block.charge_rate[:, 0, 0] for block in blocks]),
    }
    penalty = int(sum(f.sum() for f in flags.values()))
    return SimulationResult(soc=soc, theta=theta, penalty=penalty, violations=flags)


def pv_accommodation(
    traj: FlexTrajectory, surplus: np.ndarray, cfg: HemsConfig, dt: float
) -> tuple[bool, np.ndarray]:
    """Customer-preference check: no discharging while the battery is supposed
    to absorb surplus. Returns (ok, per-step violation flags)."""
    surplus = _surplus_row(surplus, traj.horizon)
    soc = np.full((1, 1), cfg.battery.soc_init)
    blocks = _lane_steps(traj.p_bat[None], traj.p_ewh[None], surplus[None], surplus > 0.0, cfg, dt, soc)
    flags = np.concatenate([block.discharge[:, 0, 0] for block in blocks])
    return not bool(flags.any()), flags


def repair_trajectory(
    traj: FlexTrajectory, surplus: np.ndarray, cfg: HemsConfig, dt: float
) -> FlexTrajectory:
    """Fix a trajectory whose only fault is discharging during surplus steps.

    Battery power is raised to zero at the offending steps, so the battery's
    actual flow there becomes exactly the supposed surplus absorption. Defined
    only for trajectories that are otherwise violation-free; anything else is
    rejected. This is `screen_with_repair` for one row, with `-surplus` as
    the one net-load row: its surplus is `surplus` with negative steps at
    zero, which the kernel treats alike.
    """
    surplus = _surplus_row(surplus, traj.horizon)
    _, _, repaired, valid, _ = screen_with_repair(traj.p_bat[None], traj.p_ewh[None], -surplus[None], cfg, dt)
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
    the current SoC and the surplus power the battery must absorb on top.

    The charging limit is `_charge_limiter`'s, worked out in Python floats.
    Where the clip differs from np.maximum's and np.minimum's, at 0.0
    against -0.0, both clipped values lie below the knee and give the
    nominal limit."""
    bat = cfg.battery
    s = 0.0 if soc < 0.0 else soc
    s = bat.capacity if s > bat.capacity else s
    limit = bat.p_charge_max if s <= bat.knee_soc else _tapered_limit(s, bat)
    hi = min(
        bat.p_charge_max,
        limit - absorb,
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
