"""Validation tooling: independent feasibility oracle, infeasible-set
sampling, PCA diversity metrics, classification reports, the semi-random
baseline constructor used for diversity comparisons, and the `validate` stage
that runs them all under one `ValidateConfig`.

The oracle re-derives every feasibility rule step by step in plain Python,
sharing no stepping code with the simulation module, so the two routes can be
checked against each other. It walks the steps before any scenario's first PV
surplus once per trajectory rather than once per scenario: there every
scenario's surplus is exactly 0.0, so every scenario steps through the same
float operations and reaches the same state, and the count is unchanged. The
baseline builders step on the oracle's own scalar route. The semi-random
baseline chain keeps the oracle's trail, the per-step state of the walk that
accepted its current member, and resumes the oracle at the one step a mutant
changes instead of walking each mutant from step 0; its members are the ones
a walk from step 0 would keep. The infeasible sampler labels its draws in
blocks on the production lane kernel, whose verdicts the tests hold to the
oracle's, and keeps the draws a per-draw oracle walk would keep.

`validate` builds each sweep kernel's training kernel matrix once and fits
all of that kernel's nu on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from ._inputs import build, integer
from .epso import FeasibleSet, robust_threshold
from .hems import EPS, FlexTrajectory, HemsConfig, TrajectorySet, feasible_power_range, screen_with_repair
from .scenarios import ScenarioSet
from .svdd import (
    KERNEL_KINDS,
    KernelSpec,
    SvddModel,
    TrainingConfig,
    classify,
    derive_bounds,
    kernel_matrix,
    normalize,
    train,
)

__all__ = [
    "ConfusionReport",
    "DiversityReport",
    "InfeasibleSet",
    "ValidateConfig",
    "ValidationReport",
    "oracle_check",
    "generate_infeasible_set",
    "pca_diversity",
    "confusion_table",
    "semi_random_baseline",
    "window_steps",
    "validate",
]

# Constraint slack of the independent route; deliberately restated here rather
# than shared so the oracle stays self-contained.
_ORACLE_EPS = 1e-9
# Dead ends the greedy baseline seed may hit before it gives up.
_GREEDY_RESTARTS = 200
# Most draws the infeasible sampler labels in one screen, which bounds the
# screen's memory. On 1000 reference draws (2-vCPU KVM guest) blocks of at
# most 256 took 13.4 ms, of 128 17.9 ms, and one block 11.4 ms.
_INFEASIBLE_BLOCK = 256


def _step_route(cfg: HemsConfig, dt: float):
    """The scalar step route of one instance, shared by the oracle and the
    baseline builders: returns ((soc, theta, headroom) before the first step,
    absorb, charge, tank, tracker).

    absorb(surplus, p_ewh, headroom) is the surplus power the battery is
    supposed to absorb: the surplus net of the heater's draw, limited by the
    charge rating and the headroom left. charge(soc, p_eff) applies one step of
    battery flow, with the efficiency on the flow side. tank(theta, p_ewh,
    draw) steps the tank through standing losses, draw replacement and heating.
    tracker(headroom, surplus, p_ewh) consumes headroom by the net surplus
    energy during surplus steps, charge-rate limited and floored at zero, and
    recovers it at the discharge rating otherwise, capped at the SoC band.
    Every constant is bound once here, so a step reads no config attribute.

    Each two-argument min or max is written as a comparison, which spares a
    builtin call per clip on the route's hot path. `min(a, b)` returns b only
    when `b < a` and `max(a, b)` only when `b > a`, and a otherwise, so
    `b if b < a else a` and `b if b > a else a`, with the same operands in the
    same order, return the same float in every case: a tie, a NaN (every
    comparison with it is false) and 0.0 against -0.0 included.
    """
    bat, ewh = cfg.battery, cfg.ewh
    p_charge_max, p_discharge_max, efficiency = bat.p_charge_max, bat.p_discharge_max, bat.efficiency
    band = bat.soc_max - bat.soc_min
    gain = dt / ewh.thermal_capacity
    alpha, house, c_p = ewh.alpha_mag, ewh.theta_house, ewh.c_p
    lift = ewh.theta_des - ewh.theta_inl

    def absorb(surplus, p_ewh, headroom):
        # min(min(max(0.0, surplus - p_ewh), p_charge_max), max(headroom, 0.0) / dt)
        if surplus > 0.0:
            net = surplus - p_ewh
            net = net if net > 0.0 else 0.0
            net = p_charge_max if p_charge_max < net else net
            room = (0.0 if 0.0 > headroom else headroom) / dt
            return room if room < net else net
        return 0.0

    def charge(soc, p_eff):
        if p_eff > 0.0:
            return soc + efficiency * p_eff * dt
        if p_eff < 0.0:
            return soc + p_eff * dt / efficiency
        return soc

    def tank(theta, p_ewh, draw):
        return theta + gain * (-alpha * (theta - house) - c_p * draw * lift + p_ewh)

    def tracker(headroom, surplus, p_ewh):
        # max(0.0, headroom - min(max(0.0, surplus - p_ewh), p_charge_max) * dt)
        # or min(headroom + p_discharge_max * dt, band)
        if surplus > 0.0:
            net = surplus - p_ewh
            net = net if net > 0.0 else 0.0
            left = headroom - (p_charge_max if p_charge_max < net else net) * dt
            return left if left > 0.0 else 0.0
        left = headroom + p_discharge_max * dt
        return band if band < left else left

    return (bat.soc_init, ewh.theta_init, band), absorb, charge, tank, tracker


def _oracle(cfg: HemsConfig, scenarios: ScenarioSet, dt: float):
    """The oracle of one instance: returns count(p_bat, p_ewh, trail=None),
    the number of scenarios in which a trajectory, given as lists
    of the scenario horizon's length, passes every rule. The limits, the draws
    and the scenario rows' surpluses are bound once here.

    Each scenario is stepped on the scalar step route, and every rule is
    applied in order: no discharge while absorbing, the tapered charge rate,
    the SoC band, the tank band. The first violation ends the scenario.

    The steps before the earliest surplus step of any row are walked once per
    trajectory, not once per row. Until its first surplus step a row's surplus
    is exactly 0.0, so nothing is absorbed, headroom only recovers, and every
    float operation of those steps is the same in every row. If that shared
    walk breaks, every row breaks and the count is 0; otherwise each row
    resumes from the state it reached, which is the state its own walk would
    have reached. The count is therefore the one a walk of each row from step
    0 gives.

    A one-row instance also keeps a trail: given `trail`, the list of states
    (soc, theta, headroom) before steps 0..h of an earlier walk, or an empty
    list for step 0, the walk starts from the trail's last state at step h
    and appends the state after each step it passes. A trajectory that agrees
    with that earlier one before step h reaches the same state at h through
    the same float operations, so its count is the one a walk from step 0
    gives, and a count of 1 leaves the trail complete: state h is the state
    before step h, for every h up to the horizon. A count of 0 leaves the
    states up to the violation, so a caller that keeps its trail passes a
    copy of its prefix.

    Written as flat scalar loops on purpose: this is the reference route and
    must not lean on the vectorized simulation helpers. The walk clips SoC
    with comparisons rather than builtin min and max calls, for speed; they
    return the same floats (see `_step_route`). The step rules stay in the
    route's closures rather than inlined into the walk: an inlined walk
    timed no faster. The baseline builders step on the same route; that
    cannot weaken a check here, because every chain member must still pass
    the oracle before it is kept.
    """
    start, absorb, charge, tank, tracker = _step_route(cfg, dt)
    bat, ewh = cfg.battery, cfg.ewh
    p_charge_max, capacity = bat.p_charge_max, bat.capacity
    knee_soc = bat.taper_knee * capacity
    taper_span = capacity - knee_soc
    taper_drop = bat.taper_floor * p_charge_max - p_charge_max
    soc_lo, soc_hi = bat.soc_min - _ORACLE_EPS, bat.soc_max + _ORACLE_EPS
    theta_lo, theta_hi = ewh.theta_min - _ORACLE_EPS, ewh.theta_max + _ORACLE_EPS
    horizon = scenarios.horizon
    draws = ewh.draws(horizon).tolist()
    # max(0.0, -load), as a comparison
    surpluses = [[-load if -load > 0.0 else 0.0 for load in row] for row in scenarios.values.tolist()]
    shared = min(next((h for h, surplus in enumerate(row) if surplus > 0.0), horizon) for row in surpluses)
    shared_surplus = [0.0] * shared
    tails = [row[shared:] for row in surpluses]
    tail_draws = draws[shared:]

    def walk(state, p_bat, p_ewh, surplus, litres, trail=None):
        """The state after stepping from `state` through the zipped steps, or
        None at the first violation; each state passed is appended to
        `trail` when one is given."""
        soc, theta, headroom = state
        for pb, pe, sur, draw in zip(p_bat, p_ewh, surplus, litres):
            supposed = absorb(sur, pe, headroom)
            if supposed > _ORACLE_EPS and pb < -_ORACLE_EPS:
                return None

            p_eff = pb + supposed
            # min(max(soc, 0.0), capacity), as comparisons (see _step_route)
            s = 0.0 if 0.0 > soc else soc
            s = capacity if capacity < s else s
            if s <= knee_soc:
                limit = p_charge_max
            else:
                limit = p_charge_max + (s - knee_soc) / taper_span * taper_drop
            if p_eff > limit + _ORACLE_EPS:
                return None

            soc = charge(soc, p_eff)
            if soc > soc_hi or soc < soc_lo:
                return None

            theta = tank(theta, pe, draw)
            if theta < theta_lo or theta > theta_hi:
                return None

            headroom = tracker(headroom, sur, pe)
            if trail is not None:
                trail.append((soc, theta, headroom))
        return soc, theta, headroom

    def count(p_bat, p_ewh, trail=None) -> int:
        if len(p_bat) != horizon or len(p_ewh) != horizon:
            raise ValueError(
                f"trajectory has {len(p_bat)} battery and {len(p_ewh)} heater steps, "
                f"the scenarios {horizon}"
            )
        if trail is not None:
            if len(surpluses) != 1:
                raise ValueError(f"a trail needs a one-scenario instance, not {len(surpluses)} scenarios")
            if not trail:
                trail.append(start)
            h = len(trail) - 1
            return int(walk(trail[h], p_bat[h:], p_ewh[h:], surpluses[0][h:], draws[h:], trail) is not None)
        state = walk(start, p_bat, p_ewh, shared_surplus, draws)
        if state is None:
            return 0
        p_bat, p_ewh = p_bat[shared:], p_ewh[shared:]
        return sum(walk(state, p_bat, p_ewh, surplus, tail_draws) is not None for surplus in tails)

    return count


def oracle_check(traj: FlexTrajectory, scenarios: ScenarioSet, cfg: HemsConfig, dt: float) -> int:
    """Count the scenarios in which the trajectory passes every rule."""
    return _oracle(cfg, scenarios, dt)(traj.p_bat.tolist(), traj.p_ewh.tolist())


@dataclass
class InfeasibleSet:
    """Rejection-sampled non-robust trajectories plus sampling statistics."""

    trajectories: TrajectorySet
    attempts: int

    @property
    def acceptance_rate(self) -> float:
        return len(self.trajectories) / self.attempts if self.attempts else 0.0


def generate_infeasible_set(
    count: int,
    cfg: HemsConfig,
    scenarios: ScenarioSet,
    seed: int,
    dt: float,
    tau_scen: float,
) -> InfeasibleSet:
    """Draw trajectories uniformly inside the power band and keep the ones
    that are not robustly feasible, in draw order, giving up after 200 draws
    per wanted member. Near-miss rather than absurd samples by construction,
    since the band matches the search space.

    Each draw takes its battery powers and then its heater coins from one
    generator, draw by draw. The draws are labelled in blocks, each as many
    as the members still wanted, at most `_INFEASIBLE_BLOCK` and at most the
    draws the budget has left, by the lane kernel's `hems.screen_with_repair`:
    a draw is robust when it is `compliant` in at least the robust threshold
    of scenarios. That screen steps no scenario for a draw whose tank or
    battery faulted before the first surplus step. Its verdicts are the
    oracle's, which the tests hold the kernel to, so the set is the one a
    per-draw oracle walk keeps. A block never draws past the last member
    wanted, so `attempts` counts the draws up to and including the last
    member kept."""
    bat = cfg.battery
    p_nom = cfg.ewh.p_nom
    horizon = scenarios.horizon
    threshold = robust_threshold(scenarios.count, tau_scen)
    max_attempts = 200 * count
    rng = np.random.default_rng(seed)
    rows = np.empty((count, 2 * horizon))
    kept = attempts = 0
    while kept < count:
        if attempts >= max_attempts:
            raise ValueError(
                f"only {kept} of {count} non-robust trajectories found in "
                f"{max_attempts} draws; the instance is too permissive"
            )
        size = min(count - kept, _INFEASIBLE_BLOCK, max_attempts - attempts)
        block = rows[kept : kept + size]
        for draw in block:
            draw[:horizon] = rng.uniform(-bat.p_discharge_max, bat.p_charge_max, horizon)
            draw[horizon:] = np.where(rng.random(horizon) < 0.5, p_nom, 0.0)
        _, compliant, *_ = screen_with_repair(block[:, :horizon], block[:, horizon:], scenarios.values, cfg, dt)
        misses = block[np.count_nonzero(compliant, axis=1) < threshold]
        rows[kept : kept + len(misses)] = misses
        kept += len(misses)
        attempts += size
    return InfeasibleSet(trajectories=TrajectorySet(rows), attempts=attempts)


@dataclass
class DiversityReport:
    """Principal-component counts needed to explain 50% and 80% of the variance."""

    n_components_50: int
    n_components_80: int
    explained_fractions: np.ndarray
    degenerate: bool = False


def pca_diversity(trajectories: TrajectorySet) -> DiversityReport:
    """Eigendecompose the covariance of the combined trajectories and report
    the minimal component counts reaching 50% and 80% cumulative variance."""
    if len(trajectories) < 2:
        raise ValueError("diversity analysis needs at least 2 trajectories")
    cov = np.cov(trajectories.combined, rowvar=False)
    eigvals = np.linalg.eigvalsh(np.atleast_2d(cov))[::-1]
    eigvals = np.maximum(eigvals, 0.0)
    total = float(eigvals.sum())
    if total <= 1e-15:
        return DiversityReport(1, 1, explained_fractions=np.zeros_like(eigvals), degenerate=True)
    fractions = eigvals / total
    cumulative = np.cumsum(fractions)
    n_50, n_80 = (int(np.searchsorted(cumulative, level - 1e-12) + 1) for level in (0.5, 0.8))
    return DiversityReport(n_50, n_80, explained_fractions=fractions)


@dataclass
class ConfusionReport:
    """Classification outcome of one model on a feasible and an infeasible set."""

    kernel_kind: str
    gamma: float
    nu: float
    feasible_correct: int
    feasible_incorrect: int
    infeasible_correct: int
    infeasible_incorrect: int

    @property
    def feasible_error_pct(self) -> float:
        total = self.feasible_correct + self.feasible_incorrect
        return 100.0 * self.feasible_incorrect / total if total else 0.0

    @property
    def infeasible_error_pct(self) -> float:
        total = self.infeasible_correct + self.infeasible_incorrect
        return 100.0 * self.infeasible_incorrect / total if total else 0.0


def confusion_table(model: SvddModel, feasible: np.ndarray, infeasible: np.ndarray) -> ConfusionReport:
    """Classify both sets, (n, d) matrices normalized with the model's
    bounds, and tabulate correct, incorrect, and error shares."""
    feas_hits = int(np.count_nonzero(classify(model, feasible)))
    infeas_hits = len(infeasible) - int(np.count_nonzero(classify(model, infeasible)))
    return ConfusionReport(
        kernel_kind=model.kernel.kind,
        gamma=model.kernel.gamma,
        nu=model.nu,
        feasible_correct=feas_hits,
        feasible_incorrect=len(feasible) - feas_hits,
        infeasible_correct=infeas_hits,
        infeasible_incorrect=len(infeasible) - infeas_hits,
    )


def _greedy_member(
    cfg: HemsConfig,
    route,
    surplus: list[float],
    draws: list[float],
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One feasible [p_bat | p_ewh] row built step by step on `route`: the EWH
    state is drawn among the temperature-safe options and battery power
    uniformly from the currently feasible single-step range. Dead ends restart."""
    horizon = len(surplus)
    start, absorb, charge, tank, tracker = route
    p_nom = cfg.ewh.p_nom
    theta_lo, theta_hi = cfg.ewh.theta_min - EPS, cfg.ewh.theta_max + EPS
    for _ in range(_GREEDY_RESTARTS):
        row = np.empty(2 * horizon)
        p_bat, p_ewh = row[:horizon], row[horizon:]
        soc, theta, headroom = start
        for h in range(horizon):
            options = [p for p in (0.0, p_nom) if theta_lo <= tank(theta, p, draws[h]) <= theta_hi]
            if not options:
                break
            pe = p_ewh[h] = options[int(rng.integers(len(options)))]
            supposed = absorb(surplus[h], pe, headroom)
            lo, hi = feasible_power_range(soc, cfg, dt, supposed)
            if hi < lo:
                break
            pb = p_bat[h] = rng.uniform(lo, hi)
            soc = charge(soc, pb + supposed)
            theta = tank(theta, pe, draws[h])
            headroom = tracker(headroom, surplus[h], pe)
        else:
            return row
    raise ValueError(f"greedy construction kept dead-ending after {_GREEDY_RESTARTS} restarts")


def semi_random_baseline(
    count: int,
    cfg: HemsConfig,
    scenario: np.ndarray,
    seed: int,
    dt: float,
) -> FeasibleSet:
    """Semi-random feasible set against a single reference scenario, built the
    way the earlier generation of this pipeline did: seed one greedily
    constructed feasible schedule, then walk a mutation chain that resamples a
    single step at a time (battery power from the step's feasible range, an
    occasional EWH flip) and keeps the mutant when the whole trajectory stays
    violation-free, giving up after 200 mutation attempts per wanted member
    plus 1000. Serves as the diversity comparison baseline only.

    The chain keeps the oracle's trail of the current member (see `_oracle`).
    A mutant differs from it only from its step h on, so the step's range is
    read from the trail's state at h and the oracle walks the mutant from
    there; an accepted mutant's trail becomes the current one. The seed is
    checked by the same oracle walk, and one that fails it is an error."""
    scenario = np.asarray(scenario, dtype=float)
    horizon = scenario.shape[0]
    surplus = np.maximum(0.0, -scenario).tolist()
    draws = cfg.ewh.draws(horizon).tolist()
    p_nom = cfg.ewh.p_nom
    max_attempts = 200 * count + 1000
    rng = np.random.default_rng(seed)
    route = _step_route(cfg, dt)
    absorb = route[1]
    oracle = _oracle(cfg, ScenarioSet(scenario[None, :]), dt)

    feasible = FeasibleSet(horizon=horizon)
    current = _greedy_member(cfg, route, surplus, draws, dt, rng)
    bats, ewhs = current[:horizon].tolist(), current[horizon:].tolist()
    trail: list = []
    if oracle(bats, ewhs, trail=trail) != 1:
        raise ValueError("the greedy baseline seed failed the oracle on its own scenario")
    feasible.add(current, fitness=1)

    attempts = 0
    while len(feasible) < count:
        if attempts >= max_attempts:
            raise ValueError(
                f"baseline chain stalled: {len(feasible)} of {count} trajectories "
                f"after {max_attempts} mutation attempts"
            )
        attempts += 1
        h = int(rng.integers(horizon))
        mutant_ewhs = ewhs.copy()
        if rng.random() < 0.3:
            mutant_ewhs[h] = p_nom - mutant_ewhs[h]
        # SoC and headroom just before step h under the current schedule
        soc, _, headroom = trail[h]
        lo, hi = feasible_power_range(soc, cfg, dt, absorb(surplus[h], mutant_ewhs[h], headroom))
        if hi < lo:
            continue
        mutant_bats = bats.copy()
        mutant_bats[h] = rng.uniform(lo, hi)
        mutant_trail = trail[: h + 1]
        if oracle(mutant_bats, mutant_ewhs, trail=mutant_trail) == 1:
            bats, ewhs, trail = mutant_bats, mutant_ewhs, mutant_trail
            feasible.add(np.array(bats + ewhs), fitness=1)
    return feasible


def window_steps(spec, dt_hours: float) -> tuple[int, int]:
    """Window as [start_step, stop_step) from either step indices or a
    clock-time span like "09:00-13:00" over a day starting at 00:00, with
    clock times up to 24:00 that fall on step boundaries. The horizon is not
    checked here: `validate` checks it against the scenarios."""
    form_error = ValueError(f"window {spec!r} is neither [start, stop] nor HH:MM-HH:MM")
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        start, stop = (integer(f"window {spec!r} step", v, 0) for v in spec)
    elif isinstance(spec, str):
        try:
            lo, hi = spec.split("-")
            lo_h, lo_m = (int(x) for x in lo.split(":"))
            hi_h, hi_m = (int(x) for x in hi.split(":"))
        except ValueError as exc:
            raise form_error from exc
        for hour, minute in ((lo_h, lo_m), (hi_h, hi_m)):
            if not (0 <= minute < 60 and 0 <= hour * 60 + minute <= 24 * 60):
                raise ValueError(f"window {spec!r}: clock times must lie in 00:00-24:00")
        steps_per_hour = 1.0 / dt_hours
        start = (lo_h + lo_m / 60.0) * steps_per_hour
        stop = (hi_h + hi_m / 60.0) * steps_per_hour
        if abs(start - round(start)) > 1e-9 or abs(stop - round(stop)) > 1e-9:
            raise ValueError(f"window {spec!r} does not align with {dt_hours} h steps")
        start, stop = int(round(start)), int(round(stop))
    else:
        raise form_error
    if not start < stop:
        raise ValueError(f"window [{start}, {stop}) is empty")
    return start, stop


@dataclass(frozen=True)
class ValidateConfig:
    """The `validate` section: the window both sets are cut to, the confusion
    sweep, and the sizes of the infeasible set and of the baseline, whose
    default None is the feasible set's size, at least 2. Parsing resolves the
    window to its (start, stop) steps and the sweep to its (kernel, training)
    pairs, kernel-major, each entry named by its index in an error.
    `dt_hours` and the two stage seeds are derived, not config keys."""

    dt_hours: float
    infeasible_seed: int
    baseline_seed: int
    window: tuple[int, int] | None = None
    sweep_kernels: tuple = tuple({"kind": kind} for kind in KERNEL_KINDS)
    sweep_nus: tuple = (0.01, 0.1, 0.15, 0.2)
    infeasible_count: int = 1000
    baseline_count: int | None = None
    sweep: tuple[tuple[KernelSpec, TrainingConfig], ...] = field(init=False, repr=False)

    def __post_init__(self):
        for key in ("sweep_kernels", "sweep_nus"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"validate.{key} must be a JSON list, got {value!r}")
            if not value:
                raise ValueError(f"validate.{key} must not be empty")
        integer("infeasible_count", self.infeasible_count, 1)
        # The PCA diversity report needs two baseline members.
        if self.baseline_count is not None:
            integer("baseline_count", self.baseline_count, 2)
        kernels = [build(f"validate.sweep_kernels[{i}]", KernelSpec, k) for i, k in enumerate(self.sweep_kernels)]
        nus = [build(f"validate.sweep_nus[{i}]", TrainingConfig, {"nu": nu}) for i, nu in enumerate(self.sweep_nus)]
        object.__setattr__(self, "sweep", tuple((kernel, training) for kernel in kernels for training in nus))
        if self.window is not None:
            object.__setattr__(self, "window", window_steps(self.window, self.dt_hours))

    def baseline_size(self, feasible: int) -> int:
        """The baseline's size next to a feasible set of `feasible` members."""
        return self.baseline_count if self.baseline_count is not None else max(2, feasible)


@dataclass
class ValidationReport:
    """What `validate` found: the infeasible sample, one confusion row per
    sweep pair, the baseline, and the diversity of the search set and of the
    baseline."""

    infeasible: InfeasibleSet
    rows: list[ConfusionReport]
    baseline: TrajectorySet
    search_diversity: DiversityReport
    baseline_diversity: DiversityReport


def validate(
    feasible: TrajectorySet, scenarios: ScenarioSet, hems_cfg: HemsConfig, settings: ValidateConfig,
    tau_scen: float,
) -> ValidationReport:
    """The validate stage as a `ValidationReport`: sample the infeasible set,
    cut it and the feasible set, whose horizon must be the scenarios', to the
    window, which must end within the horizon, fit each sweep pair on the cut
    feasible set and score both cut sets, and build the baseline on the first
    scenario. Every sweep model is trained on the cut feasible set's bounds,
    so both cut sets are normalized once for the whole sweep."""
    if feasible.horizon != scenarios.horizon:
        raise ValueError(f"the feasible set has horizon {feasible.horizon}, the scenarios {scenarios.horizon}")
    window = settings.window
    if window is not None and window[1] > scenarios.horizon:
        raise ValueError(f"window [{window[0]}, {window[1]}) outside horizon {scenarios.horizon}")
    dt = settings.dt_hours
    sample = generate_infeasible_set(
        settings.infeasible_count, hems_cfg, scenarios, settings.infeasible_seed, dt, tau_scen
    )
    feas, infeas = feasible, sample.trajectories
    if window is not None:
        feas, infeas = feas.window(*window), infeas.window(*window)
    bounds = derive_bounds(feas.matrix)
    feas_scaled, infeas_scaled = normalize(feas.matrix, bounds), normalize(infeas.matrix, bounds)
    rows = []
    for kernel, pairs in groupby(settings.sweep, key=itemgetter(0)):
        gram = kernel_matrix(kernel, feas_scaled, feas_scaled)
        for _, cfg in pairs:
            model = train(feas_scaled, kernel, cfg, norm_bounds=bounds, gram=gram)
            rows.append(confusion_table(model, feas_scaled, infeas_scaled))
        # Freed before the next kernel's is built: one is alive at a time.
        del gram
    size = settings.baseline_size(len(feasible))
    baseline = semi_random_baseline(size, hems_cfg, scenarios.values[0], settings.baseline_seed, dt).trajectories
    return ValidationReport(sample, rows, baseline, pca_diversity(feasible), pca_diversity(baseline))
