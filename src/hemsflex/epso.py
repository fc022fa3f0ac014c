"""Two-dimensional evolutionary particle swarm over flexibility trajectories.

The swarm is a set of arrays with one row per particle: a battery schedule and
an EWH schedule, their velocities and personal bests, and strategic weights
per dimension. Generations follow replicate, mutate weights, move, evaluate,
stochastic tournament, each applied to every row at once; only the random
draws stay per particle, one stream each. Fitness is the number of net-load
scenarios in which the trajectory is violation-free, so the search collects
trajectories that stay feasible with a configurable scenario-probability
threshold. There is no objective beyond feasibility; the global best is
chosen to maximize the diversity of the collected set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from ._inputs import finite, integer, read_table, whole
from .hems import FlexTrajectory, HemsConfig, batch_compliance, screen_with_repair

# Kept importable as epso.repair_trajectory, where perfbench/spans.py looks it up.
from .hems import repair_trajectory  # noqa: F401
from .scenarios import ScenarioSet, pv_surplus

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
    """The population as arrays with a leading particle axis: (P, T)
    positions, velocities and personal bests in both decision dimensions,
    (P, 2, 3) per-dimension (inertia, memory, cooperation) weights, and (P,)
    fitnesses and personal-best fitnesses (-1 before the first evaluation)."""

    x_bat: np.ndarray
    x_ewh: np.ndarray
    v_bat: np.ndarray
    v_ewh: np.ndarray
    weights: np.ndarray
    best_x_bat: np.ndarray
    best_x_ewh: np.ndarray
    best_fitness: np.ndarray
    fitness: np.ndarray

    def __len__(self) -> int:
        return self.x_bat.shape[0]


class FeasibleSet:
    """Collected robust trajectories as rows [p_bat | p_ewh] of one matrix,
    plus their fitnesses and the running per-coordinate mean of the rows.
    Members are read-only row views; a member read before the matrix grows
    keeps its values, since rows are only ever written once."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.fitnesses: list[int] = []
        self.mean = np.zeros(2 * horizon)
        self._rows = np.empty((64, 2 * horizon))
        self._distances = None

    def __len__(self) -> int:
        return len(self.fitnesses)

    def __getitem__(self, i: int) -> FlexTrajectory:
        row = self.matrix[i]
        return FlexTrajectory(p_bat=row[: self.horizon], p_ewh=row[self.horizon :])

    @property
    def matrix(self) -> np.ndarray:
        """(n, 2T) read-only view of the members."""
        view = self._rows[: len(self)]
        view.flags.writeable = False
        return view

    @property
    def trajectories(self) -> list[FlexTrajectory]:
        return [self[i] for i in range(len(self))]

    def add(self, traj: FlexTrajectory, fitness: int) -> bool:
        """Insert unless a member is closer than DEDUP_TOL in max-norm.
        Returns True when the trajectory was actually added."""
        if traj.horizon != self.horizon:
            raise ValueError(f"trajectory horizon {traj.horizon} does not match set {self.horizon}")
        vector = traj.as_vector()
        n = len(self)
        if n and float(np.min(np.max(np.abs(self._rows[:n] - vector), axis=1))) < DEDUP_TOL:
            return False
        if n == self._rows.shape[0]:
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._rows[n] = vector
        self.fitnesses.append(int(fitness))
        self.mean = self.mean + (vector - self.mean) / (n + 1)
        self._distances = None
        return True

    def distances(self) -> np.ndarray:
        """Accumulated absolute distance of each member to the set mean, as a
        read-only array computed once per state of the set."""
        if self._distances is None:
            rows, t = self._rows[: len(self)], self.horizon
            bat = np.abs(rows[:, :t] - self.mean[:t]).sum(axis=1)
            self._distances = bat + np.abs(rows[:, t:] - self.mean[t:]).sum(axis=1)
            self._distances.flags.writeable = False
        return self._distances


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


def perturb_global_best(
    b_bat: np.ndarray, b_ewh: np.ndarray, tau_prime: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Disturb the cooperation attractor coordinate-wise, b* = b + tau' * N(0, 1),
    drawing the battery normals first. Returns (battery, EWH) vectors."""
    bat = b_bat + tau_prime * rng.standard_normal(b_bat.shape[0])
    ewh = b_ewh + tau_prime * rng.standard_normal(b_ewh.shape[0])
    return bat, ewh


def move_particle(
    swarm: Swarm,
    star_bat: np.ndarray,
    star_ewh: np.ndarray,
    mask_bat: np.ndarray,
    mask_ewh: np.ndarray,
    hems_cfg: HemsConfig,
) -> Swarm:
    """Apply the movement rule with inertia, memory, and cooperation terms to
    every row at once.

    Row i moves toward its own perturbed cooperation attractor (star_bat[i],
    star_ewh[i]), and only on the coordinates its Bernoulli communication
    masks pick. Battery coordinates are clamped to the power band and EWH
    coordinates re-quantized to the nearest of {0, p_nom}. The moved swarm
    keeps the weights and personal bests of `swarm`.
    """
    bat_cfg = hems_cfg.battery
    p_nom = hems_cfg.ewh.p_nom
    w = swarm.weights[:, :, :, None]

    v_bat = (
        w[:, 0, 0] * swarm.v_bat
        + w[:, 0, 1] * (swarm.best_x_bat - swarm.x_bat)
        + w[:, 0, 2] * mask_bat * (star_bat - swarm.x_bat)
    )
    v_ewh = (
        w[:, 1, 0] * swarm.v_ewh
        + w[:, 1, 1] * (swarm.best_x_ewh - swarm.x_ewh)
        + w[:, 1, 2] * mask_ewh * (star_ewh - swarm.x_ewh)
    )
    # Battery velocity is clamped tightly: SoC feasibility over a long horizon
    # tolerates only small per-step power changes. The EWH dimension keeps the
    # full span so a single move can still flip a step across the on/off
    # quantization threshold.
    bat_vmax = VELOCITY_CLAMP_FRAC * (bat_cfg.p_charge_max + bat_cfg.p_discharge_max)
    v_bat = np.clip(v_bat, -bat_vmax, bat_vmax)
    v_ewh = np.clip(v_ewh, -p_nom, p_nom)

    x_bat = np.clip(swarm.x_bat + v_bat, -bat_cfg.p_discharge_max, bat_cfg.p_charge_max)
    x_ewh = np.where(swarm.x_ewh + v_ewh >= 0.5 * p_nom, p_nom, 0.0)
    return replace(swarm, x_bat=x_bat, x_ewh=x_ewh, v_bat=v_bat, v_ewh=v_ewh)


def evaluate_fitness(traj: FlexTrajectory, scenarios: ScenarioSet, cfg: HemsConfig, dt: float) -> int:
    """Number of scenarios in which the trajectory is fully compliant: zero
    constraint penalty and the surplus-accommodation rule respected."""
    zero_penalty, accommodation_ok = batch_compliance(
        traj.p_bat[None], traj.p_ewh[None], scenarios.values, cfg.ewh.draws(traj.horizon), cfg, dt
    )
    return int(np.count_nonzero(zero_penalty & accommodation_ok))


def robust_threshold(n_scenarios: int, tau_scen: float) -> int:
    """Minimum compliant-scenario count for robust feasibility: ceil(tau * N),
    guarded against float round-up on exact products."""
    return int(math.ceil(tau_scen * n_scenarios - 1e-9))


def select_global_best(feasible: FeasibleSet) -> FlexTrajectory:
    """Member with the greatest accumulated absolute distance to the set mean;
    first member wins ties."""
    if not len(feasible):
        raise ValueError("feasible set is empty")
    return feasible[int(np.argmax(feasible.distances()))]


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
    x_bat = np.empty((size, horizon))
    x_ewh = np.empty((size, horizon))
    weights = np.empty((size, 2, 3))
    for i in range(size):
        amplitude = rng.uniform(0.05, 1.0)
        duty = rng.uniform(0.0, 0.5)
        x_bat[i] = amplitude * rng.uniform(-bat_cfg.p_discharge_max, bat_cfg.p_charge_max, horizon)
        x_ewh[i] = np.where(rng.random(horizon) < duty, p_nom, 0.0)
        weights[i] = rng.uniform(0.0, 1.0, (2, 3))
    n_zeroed = int(round(size * SEED_ZERO_FRACTION))
    x_bat[:n_zeroed, scenario0 < 0.0] = 0.0
    return Swarm(
        x_bat=x_bat,
        x_ewh=x_ewh,
        v_bat=np.zeros((size, horizon)),
        v_ewh=np.zeros((size, horizon)),
        weights=weights,
        best_x_bat=x_bat.copy(),
        best_x_ewh=x_ewh.copy(),
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

    Offspring that are violation-free in enough scenarios but discharge during
    surplus steps are repaired against the scenario-set surplus envelope and
    re-checked before joining the set. Each evaluation is one kernel pass that
    screens the swarm and repairs every row at once, plus, when some repair
    candidate is valid, one `batch_compliance` re-screen of the repaired rows.
    `log_sink`, when given, receives one dict per iteration.
    """
    t_start = time.perf_counter()
    n_scen = scenarios.count
    horizon = scenarios.horizon
    threshold = robust_threshold(n_scen, epso_cfg.tau_scen)
    scenario0 = scenarios.values[0]
    draws = hems_cfg.ewh.draws(horizon)
    # Repair against the surplus envelope: a trajectory that never discharges
    # where any scenario shows surplus passes the accommodation rule in all.
    surplus_envelope = pv_surplus(scenarios.values).max(axis=0)
    feasible = FeasibleSet(horizon=horizon)

    def emit(record: dict) -> None:
        if log_sink is not None:
            log_sink(record)

    def evaluate(swarm: Swarm) -> None:
        """Score and repair the whole swarm in one kernel pass, re-screen the
        valid repair candidates in one call, refresh the personal bests, then
        offer the robust rows, repaired ones included, to the set in row order."""
        zero_penalty, accommodation_ok, fixed_bat, valid = screen_with_repair(
            swarm.x_bat, swarm.x_ewh, scenarios.values, surplus_envelope, draws, hems_cfg, dt
        )
        fitness = np.count_nonzero(zero_penalty & accommodation_ok, axis=1)
        penalty_free = np.count_nonzero(zero_penalty, axis=1)
        # Repair applies when the only widespread failures are
        # surplus-accommodation ones; it is skipped for trajectories the
        # envelope itself pushes into penalties.
        rows = np.flatnonzero((fitness < threshold) & (penalty_free >= threshold) & valid)
        offered_bat, offered_fitness = swarm.x_bat, fitness
        if rows.size:
            offered_bat, offered_fitness = swarm.x_bat.copy(), fitness.copy()
            offered_bat[rows] = fixed_bat[rows]
            zero_penalty, accommodation_ok = batch_compliance(
                fixed_bat[rows], swarm.x_ewh[rows], scenarios.values, draws, hems_cfg, dt
            )
            offered_fitness[rows] = np.count_nonzero(zero_penalty & accommodation_ok, axis=1)
        # A personal best follows ties to the newer position, which aids diversity.
        improved = fitness >= swarm.best_fitness
        swarm.fitness = fitness
        swarm.best_fitness = np.where(improved, fitness, swarm.best_fitness)
        swarm.best_x_bat, swarm.best_x_ewh = np.where(
            improved[:, None], (swarm.x_bat, swarm.x_ewh), (swarm.best_x_bat, swarm.best_x_ewh)
        )
        for i in np.flatnonzero(offered_fitness >= threshold):
            offered = FlexTrajectory(p_bat=offered_bat[i], p_ewh=swarm.x_ewh[i])
            feasible.add(offered, int(offered_fitness[i]))

    def best_distance() -> float:
        return float(np.max(feasible.distances())) if len(feasible) else 0.0

    swarm = seed_initial_population(scenario0, epso_cfg, hems_cfg, _stream(epso_cfg.seed, 0))
    evaluate(swarm)
    emit(
        {
            "iteration": 0,
            "feasible": len(feasible),
            "best_distance": best_distance(),
            "mutation_rate": MUTATION_MAX,
        }
    )

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
            b_bat, b_ewh = b_g.p_bat, b_g.p_ewh
        else:
            best = int(np.argmax(swarm.fitness))
            b_bat, b_ewh = swarm.x_bat[best], swarm.x_ewh[best]
        distance = best_distance()

        # Each particle draws from its own stream, in a fixed order: weight
        # normals, the two attractor perturbations, then the two masks.
        weights = np.empty_like(swarm.weights)
        star_bat, star_ewh = np.empty((size, horizon)), np.empty((size, horizon))
        mask_bat, mask_ewh = np.empty((2, size, horizon), dtype=bool)
        for i in range(size):
            rng_move = _stream(epso_cfg.seed, 1, it, i)
            weights[i] = mutate_weights(swarm.weights[i], tau_effective, rng_move)
            star_bat[i], star_ewh[i] = perturb_global_best(b_bat, b_ewh, TAU_PRIME, rng_move)
            mask_bat[i], mask_ewh[i] = rng_move.random((2, horizon)) < COMM_FACTOR
        offspring = move_particle(
            replace(swarm, weights=weights), star_bat, star_ewh, mask_bat, mask_ewh, hems_cfg
        )
        evaluate(offspring)

        swarm = stochastic_tournament(
            swarm, offspring, _stream(epso_cfg.seed, 2, it), TOURNAMENT_WIN_PROB
        )
        emit(
            {
                "iteration": it,
                "feasible": len(feasible),
                "best_distance": distance,
                "mutation_rate": rate,
            }
        )

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


def write_trajectories_csv(
    path, trajectories: list[FlexTrajectory], fitnesses=None, horizon: int | None = None
) -> None:
    """One row per trajectory: pbat_h1..pbat_hT, pewh_h1..pewh_hT, fitness.
    Values keep full float precision so files round-trip exactly. An empty
    list needs an explicit horizon for the header."""
    if not trajectories:
        if horizon is None:
            raise ValueError("no trajectories to write and no horizon for the header")
    else:
        horizon = trajectories[0].horizon
    if fitnesses is None:
        fitnesses = [0] * len(trajectories)
    # One join per row gives the bytes a csv writer would: a float's repr
    # holds no character that csv quotes, and "\r\n" is its line end.
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_trajectory_header(horizon)) + "\r\n")
        fh.writelines(
            ",".join(map(repr, traj.p_bat.tolist() + traj.p_ewh.tolist())) + f",{int(fitness)}\r\n"
            for traj, fitness in zip(trajectories, fitnesses)
        )


def read_trajectories_csv(path) -> tuple[list[FlexTrajectory], list[int]]:
    """Trajectories and fitnesses of a file with the exact header that
    `write_trajectories_csv` writes. The body is parsed as one matrix, so the
    trajectories are row views of it, and a fitness must be a whole number."""
    path, header, table = read_table(path)
    horizon = (len(header) - 1) // 2
    if horizon < 1 or header != _trajectory_header(horizon):
        raise ValueError(f"{path}: expected the trajectory header pbat_h1..pbat_hT,pewh_h1..pewh_hT,fitness")
    fitness = whole(path, "fitness", table[:, -1])
    trajectories = [FlexTrajectory(p_bat=r[:horizon], p_ewh=r[horizon:-1]) for r in table]
    return trajectories, fitness.tolist()
