"""Two-dimensional evolutionary particle swarm over flexibility trajectories.

The swarm is a set of arrays with one row per particle. Position, velocity
and personal best are (2T,) rows in the `hems.TrajectorySet` layout,
[p_bat | p_ewh], which the feasible set stores as they are; the (2, 3)
strategic weights hold one (inertia, memory, cooperation) triple per
dimension, each acting on its own half of the row. Generations follow
replicate, mutate weights, move, evaluate, stochastic tournament, each
applied to every row at once; only the random draws stay per particle, one
stream each. Fitness is the number of net-load scenarios in which the
trajectory is violation-free, so the search collects trajectories that stay
feasible with a configurable scenario-probability threshold. There is no
objective beyond feasibility; the global best is chosen to maximize the
diversity of the collected set.
"""

from __future__ import annotations

import bisect
import math
import numbers
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from ._inputs import finite, finite_array, integer, read_table, whole
from .hems import FlexTrajectory, HemsConfig, TrajectorySet, batch_compliance, swarm_pass

# Kept importable as epso.repair_trajectory, where perfbench/spans.py looks it up.
from .hems import repair_trajectory  # noqa: F401
from .scenarios import ScenarioSet

__all__ = [
    "EpsoConfig",
    "Swarm",
    "FeasibleSet",
    "SearchResult",
    "mutate_weights",
    "perturb_global_best",
    "move_particle",
    "evaluate_fitness",
    "robust_threshold",
    "select_global_best",
    "stochastic_tournament",
    "seed_initial_population",
    "run",
    "write_trajectories_csv",
    "read_trajectories_csv",
]

# Trajectories closer than this in max-norm count as duplicates in the set.
DEDUP_TOL = 1e-6
# Strategic weights are kept in this band after mutation.
WEIGHT_BOUNDS = (0.0, 2.0)
# Probability that a coordinate moves toward the cooperation attractor.
COMM_FACTOR = 0.15
# The mutation rate decays linearly from MUTATION_MAX to MUTATION_MIN over the
# iteration budget and scales the weight-mutation magnitude (annealing).
MUTATION_MAX = 0.50
MUTATION_MIN = 0.05
# Learning rates of the weight mutation and of the global-best perturbation.
TAU_LEARN = 5.0
TAU_PRIME = 1.0
# Chance that the fitter of a parent-offspring pair survives the tournament.
TOURNAMENT_WIN_PROB = 0.8
# Share of the initial swarm that starts with zero battery power on surplus steps.
SEED_ZERO_FRACTION = 0.5
# Per-step battery velocity cap as a fraction of the power span: robust
# trajectories live in a thin slice of the 96-step power band, so untamed
# velocities overshoot it almost surely.
VELOCITY_CLAMP_FRAC = 0.1


@dataclass(frozen=True)
class EpsoConfig:
    """Swarm settings. Defaults follow the reference experiment setup; the
    swarm's rates are the module constants above."""

    pop_size: int = 30
    max_iters: int = 5000
    target_feasible: int = 1000
    tau_scen: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for name in ("pop_size", "max_iters", "target_feasible"):
            integer(name, getattr(self, name), 1)
        if not 0.0 < finite("tau_scen", self.tau_scen) <= 1.0:
            raise ValueError(f"tau_scen must lie in (0, 1], got {self.tau_scen!r}")


@dataclass
class Swarm:
    """The population as arrays with a leading particle axis: (P, 2T)
    positions, velocities and personal bests, each row [p_bat | p_ewh],
    (P, 2, 3) per-dimension (inertia, memory, cooperation) weights, and (P,)
    fitnesses and personal-best fitnesses (-1 before the first evaluation)."""

    x: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    best_x: np.ndarray
    best_fitness: np.ndarray
    fitness: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


class FeasibleSet:
    """Collected robust trajectories as the rows of one growing buffer, plus
    their fitnesses and the running per-coordinate mean of the rows. The
    members are read as a `TrajectorySet` view of the buffer; a view taken
    before the buffer grows keeps its values, since rows are only ever
    written once.

    `add` rejects a row closer than DEDUP_TOL in max-norm to some member, as
    a scan of every member would. To avoid the scan, the members' row sums,
    each taken exactly rounded by `math.fsum`, are kept sorted, and a row is
    compared only with the members whose sum lies within `_sum_window` of
    its own. A row that is not finite, or on which `math.fsum` overflows, is
    rejected with ValueError and leaves the set as it was.

    Exactness: a distance computed below DEDUP_TOL means every computed
    |m_j - x_j| is below it, and since a subtraction rounds monotonically and
    DEDUP_TOL is a float, so is every exact |m_j - x_j|. The exact sums of
    the two 2T-wide rows then differ by less than 2T DEDUP_TOL, and each
    `fsum` result lies within 2^-53 times its exact sum's magnitude (plus
    2^-1075 near underflow) of that sum. `_sum_window` widens 2T DEDUP_TOL
    by a factor 1 + 2^-20 and adds 2^-40 times the row's sum and 1e-300,
    which covers both sums' rounding and that of the window's own ends many
    times over. A member outside the window therefore has a distance of at
    least DEDUP_TOL, never NaN (both rows are finite), and cannot change
    what the full scan decides. A test holds a duplicate whose rounded sums
    lie more than 2T DEDUP_TOL apart."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.fitnesses: list[int] = []
        self.mean = np.zeros(2 * horizon)
        self._rows = np.empty((64, 2 * horizon))
        self._distances = None
        # The members' row sums in ascending order, and the member index of each.
        self._sums: list[float] = []
        self._by_sum: list[int] = []

    def __len__(self) -> int:
        return len(self.fitnesses)

    @property
    def trajectories(self) -> TrajectorySet:
        """The members, as a read-only view of the buffer."""
        return TrajectorySet(self._rows[: len(self)])

    def add(self, row: np.ndarray, fitness: int) -> bool:
        """Insert a (2T,) [p_bat | p_ewh] row, a copy of it, unless a member
        is closer than DEDUP_TOL in max-norm. Returns True when the row was
        actually added."""
        vector = np.asarray(row, dtype=float)
        if vector.shape != (2 * self.horizon,):
            raise ValueError(f"row has shape {vector.shape}, the set's rows are {2 * self.horizon} wide")
        try:
            total = math.fsum(finite_array("row", vector).tolist())
        except OverflowError as exc:
            raise ValueError(f"row is too large to sum: {exc}") from None
        slack = _sum_window(vector.size, total)
        lo = bisect.bisect_left(self._sums, total - slack)
        hi = bisect.bisect_right(self._sums, total + slack)
        picks = self._by_sum[lo:hi]
        n = len(self)
        # Rows near the float range overflow here: in the scan, to a distance
        # of inf, which is no duplicate, and in the step, mended below.
        with np.errstate(over="ignore"):
            if picks and float(np.min(np.max(np.abs(self._rows[picks] - vector), axis=1))) < DEDUP_TOL:
                return False
            step = (vector - self.mean) / (n + 1)
        # Where the difference overflows, the row and the mean lie on either
        # side of zero, so the difference of their shares is finite, and so is
        # the mean it moves to.
        wide = ~np.isfinite(step)
        if wide.any():
            step[wide] = vector[wide] / (n + 1) - self.mean[wide] / (n + 1)
        mean = self.mean + step
        if n == self._rows.shape[0]:
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._rows[n] = vector
        k = bisect.bisect_right(self._sums, total)
        self._sums.insert(k, total)
        self._by_sum.insert(k, n)
        self.fitnesses.append(int(fitness))
        self.mean = mean
        self._distances = None
        return True

    def distances(self) -> np.ndarray:
        """Accumulated absolute distance of each member to the set mean, as a
        read-only array computed once per state of the set. Members near
        the float range may sum to a distance of inf, as `add` lets them."""
        if self._distances is None:
            with np.errstate(over="ignore"):
                deviation = np.abs(self._rows[: len(self)] - self.mean)
                self._distances = deviation[:, : self.horizon].sum(axis=1) + deviation[:, self.horizon :].sum(axis=1)
            self._distances.flags.writeable = False
        return self._distances


def _sum_window(width: int, total: float) -> float:
    """Half-width of the row-sum window of `FeasibleSet.add` around a row
    of `width` entries summing to `total` (see `FeasibleSet`)."""
    return width * DEDUP_TOL * (1.0 + 2.0**-20) + abs(total) * 2.0**-40 + 1e-300


@dataclass
class SearchResult:
    """Outcome of a swarm run."""

    feasible: FeasibleSet
    completed: bool
    warning: str | None
    iterations: int
    elapsed_s: float


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic RNG stream addressed by a structural key, so results do
    not depend on evaluation order or worker count."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def mutate_weights(weights: np.ndarray, tau_learn: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian mutation of the strategic weights: w* = w + tau * N(0, 1),
    clamped into WEIGHT_BOUNDS. The swarm passes a decayed tau as the run
    progresses."""
    w = np.asarray(weights, dtype=float)
    return np.clip(w + tau_learn * rng.standard_normal(w.shape), WEIGHT_BOUNDS[0], WEIGHT_BOUNDS[1])


def perturb_global_best(b: np.ndarray, tau_prime: float, rng: np.random.Generator) -> np.ndarray:
    """Disturb the cooperation attractor, a (2T,) row, coordinate-wise:
    b* = b + tau' * N(0, 1), the battery half's normals drawn first."""
    return b + tau_prime * rng.standard_normal(b.shape[0])


def move_particle(swarm: Swarm, star: np.ndarray, mask: np.ndarray, hems_cfg: HemsConfig) -> Swarm:
    """Apply the movement rule with inertia, memory, and cooperation terms to
    every row at once.

    Row i moves toward its own perturbed cooperation attractor star[i], and
    only on the coordinates its Bernoulli communication mask mask[i] picks;
    both are (P, 2T) like the positions. Each dimension's weights act on its
    half of the row. Battery coordinates are then clamped to the power band
    and EWH coordinates re-quantized to the nearest of {0, p_nom}. The moved
    swarm keeps the weights and personal bests of `swarm`.
    """
    bat_cfg = hems_cfg.battery
    p_nom = hems_cfg.ewh.p_nom
    size, width = swarm.x.shape
    horizon = width // 2
    # (P, 2, T) views of the rows, one plane per dimension, each under its
    # own (P, 2, 1) weights.
    x, v, best, star, mask = (a.reshape(size, 2, horizon) for a in (swarm.x, swarm.v, swarm.best_x, star, mask))
    w = swarm.weights[:, :, :, None]
    v = (w[:, :, 0] * v + w[:, :, 1] * (best - x) + w[:, :, 2] * mask * (star - x)).reshape(size, width)
    # Battery velocity is clamped tightly: SoC feasibility over a long horizon
    # tolerates only small per-step power changes. The EWH dimension keeps the
    # full span so a single move can still flip a step across the on/off
    # quantization threshold.
    bat_vmax = VELOCITY_CLAMP_FRAC * (bat_cfg.p_charge_max + bat_cfg.p_discharge_max)
    np.clip(v[:, :horizon], -bat_vmax, bat_vmax, out=v[:, :horizon])
    np.clip(v[:, horizon:], -p_nom, p_nom, out=v[:, horizon:])

    moved = swarm.x + v
    np.clip(moved[:, :horizon], -bat_cfg.p_discharge_max, bat_cfg.p_charge_max, out=moved[:, :horizon])
    moved[:, horizon:] = np.where(moved[:, horizon:] >= 0.5 * p_nom, p_nom, 0.0)
    return replace(swarm, x=moved, v=v)


def evaluate_fitness(traj: FlexTrajectory, scenarios: ScenarioSet, cfg: HemsConfig, dt: float) -> int:
    """Number of scenarios in which the trajectory is fully compliant: zero
    constraint penalty and the surplus-accommodation rule respected."""
    zero_penalty, accommodation_ok = batch_compliance(traj.p_bat[None], traj.p_ewh[None], scenarios.values, cfg, dt)
    return int(np.count_nonzero(zero_penalty & accommodation_ok))


def robust_threshold(n_scenarios: int, tau_scen: float) -> int:
    """Minimum compliant-scenario count for robust feasibility: ceil(tau * N),
    guarded against float round-up on exact products."""
    return int(math.ceil(tau_scen * n_scenarios - 1e-9))


def select_global_best(feasible: FeasibleSet) -> np.ndarray:
    """Row of the member with the greatest accumulated absolute distance to
    the set mean, a read-only view; first member wins ties."""
    if not len(feasible):
        raise ValueError("feasible set is empty")
    row = feasible._rows[int(np.argmax(feasible.distances()))].view()
    row.flags.writeable = False
    return row


def stochastic_tournament(
    parents: Swarm,
    offspring: Swarm,
    rng: np.random.Generator,
    win_prob: float,
) -> Swarm:
    """Pairwise selection of row i of either swarm: the higher-fitness
    individual survives with probability `win_prob`, ties are a fair coin
    flip. One uniform draw per pair, in row order."""
    if len(parents) != len(offspring):
        raise ValueError("parent and offspring populations must pair up")
    u = rng.random(len(parents))
    child_fitter = offspring.fitness > parents.fitness
    child_weaker = offspring.fitness < parents.fitness
    child_wins = np.where(child_fitter, u < win_prob, np.where(child_weaker, u >= win_prob, u < 0.5))
    survivors = {}
    for f in fields(Swarm):
        child, parent = getattr(offspring, f.name), getattr(parents, f.name)
        survivors[f.name] = np.where(child_wins.reshape(-1, *[1] * (parent.ndim - 1)), child, parent)
    return Swarm(**survivors)


def seed_initial_population(
    scenario0: np.ndarray,
    epso_cfg: EpsoConfig,
    hems_cfg: HemsConfig,
    rng: np.random.Generator,
) -> Swarm:
    """Draw positions inside the power band; a fraction of particles start
    with zero battery power during the reference scenario's surplus steps,
    nudging them toward the surplus-accommodation preference.

    Each particle draws its own battery amplitude and EWH duty cycle: over a
    long horizon a full-band random walk almost surely leaves the SoC or
    temperature limits, so the seeds span gentle to aggressive schedules
    instead of starting uniformly aggressive (and uniformly infeasible).
    """
    scenario0 = np.asarray(scenario0, dtype=float)
    horizon = scenario0.shape[0]
    bat_cfg = hems_cfg.battery
    p_nom = hems_cfg.ewh.p_nom
    size = epso_cfg.pop_size
    x = np.empty((size, 2 * horizon))
    weights = np.empty((size, 2, 3))
    for i in range(size):
        amplitude = rng.uniform(0.05, 1.0)
        duty = rng.uniform(0.0, 0.5)
        x[i, :horizon] = amplitude * rng.uniform(-bat_cfg.p_discharge_max, bat_cfg.p_charge_max, horizon)
        x[i, horizon:] = np.where(rng.random(horizon) < duty, p_nom, 0.0)
        weights[i] = rng.uniform(0.0, 1.0, (2, 3))
    n_zeroed = int(round(size * SEED_ZERO_FRACTION))
    x[:n_zeroed, :horizon][:, scenario0 < 0.0] = 0.0
    return Swarm(
        x=x,
        v=np.zeros((size, 2 * horizon)),
        weights=weights,
        best_x=x.copy(),
        best_fitness=np.full(size, -1),
        fitness=np.full(size, -1),
    )


def run(
    epso_cfg: EpsoConfig,
    scenarios: ScenarioSet,
    hems_cfg: HemsConfig,
    dt: float,
    log_sink=None,
) -> SearchResult:
    """Search until the target number of distinct robust trajectories is
    collected or the iteration budget runs out.

    Each evaluation is one `hems.swarm_pass` of the swarm, which steps the
    tank once:
    - a thermostat, `hems.comfort_repair`, repairs every particle's heater
      schedule: from the first step where the tank would leave its comfort
      band, the heater switches off at a step that would take it above the
      band and on at a step that would take it below. The repaired schedule
      becomes the particle's position, so its personal best, the tournament
      and the global best all see it;
    - one kernel pass screens the swarm on the thermostat's tank path and
      repairs every row against the scenario-set surplus envelope. It steps
      the scenarios' tail only for the rows whose head, the tank and the
      battery before the first surplus step, passed, and gives each row's
      compliant scenarios, which the fitness counts;
    - rows that are violation-free in enough scenarios but discharge
      during surplus steps are the repair candidates. Their repairs are
      re-screened from the first surplus step on, and offered to the set in
      place of the rows, with the same verdicts as a full screen.

    `log_sink`, when given, receives one dict per iteration. Its
    `comfort_repaired` counts the rows whose heater schedule the thermostat
    changed in that iteration's pass, `head_faulted` the rows of the pass
    whose head faulted after it, `repair_candidates` the rows whose repair
    was re-screened, and `repair_robust` those of them whose repair reached
    the robust threshold.
    """
    t_start = time.perf_counter()
    n_scen = scenarios.count
    horizon = scenarios.horizon
    threshold = robust_threshold(n_scen, epso_cfg.tau_scen)
    scenario0 = scenarios.values[0]
    feasible = FeasibleSet(horizon=horizon)

    def log(iteration: int, distance: float, rate: float, counts: dict) -> None:
        if log_sink is not None:
            log_sink(
                {"iteration": iteration, "feasible": len(feasible), "best_distance": distance, "mutation_rate": rate}
                | counts
            )

    def evaluate(swarm: Swarm) -> dict:
        """Evaluate the swarm in one `swarm_pass`, write the thermostat's
        heater schedules into it, refresh the personal bests, then offer the
        robust rows, repaired ones included, to the set in row order.
        Returns the pass's counts for the log."""
        x_ewh = swarm.x[:, horizon:]
        screened = swarm_pass(swarm.x[:, :horizon], x_ewh, scenarios.values, hems_cfg, dt, threshold)
        x_ewh[:] = screened.p_ewh
        fitness, offered_fitness, candidates = screened.fitness, screened.offered_fitness, screened.candidates
        # A personal best follows ties to the newer position, which aids diversity.
        improved = fitness >= swarm.best_fitness
        swarm.fitness = fitness
        swarm.best_fitness = np.where(improved, fitness, swarm.best_fitness)
        swarm.best_x = np.where(improved[:, None], swarm.x, swarm.best_x)
        offered = np.concatenate([screened.p_bat, x_ewh], axis=1)
        for i in np.flatnonzero(offered_fitness >= threshold):
            feasible.add(offered[i], int(offered_fitness[i]))
        return {
            "comfort_repaired": screened.comfort_repaired,
            "head_faulted": screened.head_faulted,
            "repair_candidates": int(candidates.size),
            "repair_robust": int(np.count_nonzero(offered_fitness[candidates] >= threshold)),
        }

    def best_distance() -> float:
        return float(np.max(feasible.distances())) if len(feasible) else 0.0

    swarm = seed_initial_population(scenario0, epso_cfg, hems_cfg, _stream(epso_cfg.seed, 0))
    counts = evaluate(swarm)
    log(0, best_distance(), MUTATION_MAX, counts)

    size = epso_cfg.pop_size
    iterations = 0
    for it in range(1, epso_cfg.max_iters + 1):
        if len(feasible) >= epso_cfg.target_feasible:
            break
        iterations = it
        progress = (it - 1) / max(1, epso_cfg.max_iters - 1)
        rate = MUTATION_MAX + (MUTATION_MIN - MUTATION_MAX) * progress
        tau_effective = TAU_LEARN * rate

        if len(feasible):
            b_g = select_global_best(feasible)
        else:
            b_g = swarm.x[int(np.argmax(swarm.fitness))]
        distance = best_distance()

        # Each particle draws from its own stream, in a fixed order: weight
        # normals, the attractor perturbation, then the mask, each over the
        # battery half of the row first.
        weights = np.empty_like(swarm.weights)
        star = np.empty((size, 2 * horizon))
        mask = np.empty((size, 2 * horizon), dtype=bool)
        for i in range(size):
            rng_move = _stream(epso_cfg.seed, 1, it, i)
            weights[i] = mutate_weights(swarm.weights[i], tau_effective, rng_move)
            star[i] = perturb_global_best(b_g, TAU_PRIME, rng_move)
            mask[i] = rng_move.random(2 * horizon) < COMM_FACTOR
        offspring = move_particle(replace(swarm, weights=weights), star, mask, hems_cfg)
        counts = evaluate(offspring)

        swarm = stochastic_tournament(
            swarm, offspring, _stream(epso_cfg.seed, 2, it), TOURNAMENT_WIN_PROB
        )
        log(it, distance, rate, counts)

    completed = len(feasible) >= epso_cfg.target_feasible
    warning = None
    if not completed:
        warning = (
            f"iteration budget exhausted with {len(feasible)} of "
            f"{epso_cfg.target_feasible} robust trajectories"
        )
    return SearchResult(
        feasible=feasible,
        completed=completed,
        warning=warning,
        iterations=iterations,
        elapsed_s=time.perf_counter() - t_start,
    )


def _trajectory_header(horizon: int) -> list[str]:
    """The header `write_trajectories_csv` writes and `read_trajectories_csv` requires."""
    return (
        [f"pbat_h{k}" for k in range(1, horizon + 1)]
        + [f"pewh_h{k}" for k in range(1, horizon + 1)]
        + ["fitness"]
    )


def write_trajectories_csv(path, trajectories, fitnesses=None) -> None:
    """One row per trajectory of a `TrajectorySet`, written from its matrix
    rows, or of a non-empty sequence of `FlexTrajectory`, stacked into one
    first: pbat_h1..pbat_hT, pewh_h1..pewh_hT, fitness.
    Each value is written as its `repr`, so files round-trip exactly. The
    header's horizon is the trajectories' own, so an empty set writes its
    header and an empty list, which has none, is refused. A trajectory whose
    horizon differs from the first one's, a non-finite value, a fitness
    count that disagrees with the trajectories, or a fitness that is not a
    whole number is rejected before the file is opened."""
    if not isinstance(trajectories, TrajectorySet):
        if not trajectories:
            raise ValueError("no trajectories to write and no horizon for the header")
        horizon = trajectories[0].horizon
        for i, traj in enumerate(trajectories):
            if traj.horizon != horizon:
                raise ValueError(f"trajectory {i} has horizon {traj.horizon}, the header {horizon}")
        trajectories = TrajectorySet(np.reshape([(t.p_bat, t.p_ewh) for t in trajectories], (-1, 2 * horizon)))
    horizon = trajectories.horizon
    if fitnesses is None:
        fitnesses = [0] * len(trajectories)
    if len(fitnesses) != len(trajectories):
        raise ValueError(f"{len(trajectories)} trajectories but {len(fitnesses)} fitnesses")
    for i, fitness in enumerate(fitnesses):
        if not isinstance(fitness, numbers.Integral) and not (
            isinstance(fitness, numbers.Real) and math.isfinite(fitness) and int(fitness) == fitness
        ):
            raise ValueError(f"fitness {fitness!r} of trajectory {i} is not a whole number")
    # One join per row gives the bytes a csv writer would: a float's repr
    # holds no character that csv quotes, and "\r\n" is its line end.
    # Consecutive rows often share most cells, so a row re-formats only the
    # cells whose bits changed (bits keep -0.0 apart from 0.0), unless so
    # many changed that formatting the whole row is cheaper.
    width = 2 * horizon
    previous, cells = None, []
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_trajectory_header(horizon)) + "\r\n")
        for row, fitness in zip(trajectories.matrix, fitnesses):
            bits = row.view(np.int64)
            changed = None if previous is None else np.flatnonzero(bits != previous)
            if changed is None or 4 * changed.size > width:
                cells = list(map(repr, row.tolist()))
            else:
                for k, value in zip(changed.tolist(), row[changed].tolist()):
                    cells[k] = repr(value)
            previous = bits
            fh.write(",".join(cells) + f",{int(fitness)}\r\n")


def read_trajectories_csv(path) -> tuple[TrajectorySet, list[int]]:
    """Trajectories and fitnesses of a file with the exact header that
    `write_trajectories_csv` writes. The body is parsed as one matrix, whose
    trajectory columns are the set, as wide as the header even when the file
    has no rows; a fitness must be a whole number."""
    path, header, table = read_table(path)
    horizon = (len(header) - 1) // 2
    if horizon < 1 or header != _trajectory_header(horizon):
        raise ValueError(f"{path}: expected the trajectory header pbat_h1..pbat_hT,pewh_h1..pewh_hT,fitness")
    fitness = whole(path, "fitness", table[:, -1])
    return TrajectorySet(table[:, :-1]), fitness.tolist()
