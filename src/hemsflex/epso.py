"""Two-dimensional evolutionary particle swarm over flexibility trajectories.

Each particle carries a battery schedule and an EWH schedule plus strategic
weights per dimension. Generations follow replicate, mutate weights, move,
evaluate, stochastic tournament. Fitness is the number of net-load scenarios
in which the trajectory is violation-free, so the search collects trajectories
that stay feasible with a configurable scenario-probability threshold. There
is no objective beyond feasibility; the global best is chosen to maximize the
diversity of the collected set.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hems import FlexTrajectory, HemsConfig, batch_compliance, batch_repair

# Kept importable as epso.repair_trajectory, where perfbench/spans.py looks it up.
from .hems import repair_trajectory  # noqa: F401
from .scenarios import ScenarioSet

__all__ = [
    "EpsoConfig",
    "Particle",
    "FeasibleSet",
    "SearchResult",
    "mutate_weights",
    "perturb_global_best",
    "move_particle",
    "evaluate_fitness",
    "is_robust",
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


@dataclass(frozen=True)
class EpsoConfig:
    """Swarm settings. Defaults follow the reference experiment setup.

    The mutation rate decays linearly from mutation_max to mutation_min over
    the iteration budget and scales the weight-mutation magnitude (annealing).
    velocity_clamp_frac caps per-step velocity as a fraction of each
    dimension's power span; robust trajectories live in a thin slice of the
    96-step power band, so untamed velocities overshoot it almost surely.
    """

    pop_size: int = 30
    max_iters: int = 5000
    target_feasible: int = 1000
    comm_factor: float = 0.15
    mutation_max: float = 0.50
    mutation_min: float = 0.05
    tau_learn: float = 5.0
    tau_prime: float = 1.0
    tau_scen: float = 0.9
    tournament_win_prob: float = 0.8
    seed_zero_fraction: float = 0.5
    velocity_clamp_frac: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 1 or self.max_iters < 1 or self.target_feasible < 1:
            raise ValueError("pop_size, max_iters, and target_feasible must be positive")
        if not 0.0 < self.tau_scen <= 1.0:
            raise ValueError("tau_scen must lie in (0, 1]")
        if self.mutation_min > self.mutation_max:
            raise ValueError("mutation_min must not exceed mutation_max")
        if not 0.0 <= self.comm_factor <= 1.0:
            raise ValueError("comm_factor must lie in [0, 1]")
        if not 0.0 <= self.seed_zero_fraction <= 1.0:
            raise ValueError("seed_zero_fraction must lie in [0, 1]")
        if not 0.0 < self.velocity_clamp_frac <= 1.0:
            raise ValueError("velocity_clamp_frac must lie in (0, 1]")


@dataclass
class Particle:
    """Swarm individual: position and velocity in both decision dimensions,
    per-dimension (inertia, memory, cooperation) weights, personal best."""

    x_bat: np.ndarray
    x_ewh: np.ndarray
    v_bat: np.ndarray
    v_ewh: np.ndarray
    weights: np.ndarray
    best_x_bat: np.ndarray
    best_x_ewh: np.ndarray
    best_fitness: int = -1
    fitness: int = -1

    @property
    def trajectory(self) -> FlexTrajectory:
        return FlexTrajectory(p_bat=self.x_bat.copy(), p_ewh=self.x_ewh.copy())

    def note_evaluation(self, fitness: int) -> None:
        """Record a fitness value and refresh the personal best if it is at
        least as good (ties follow the newer position, which aids diversity)."""
        self.fitness = fitness
        if fitness >= self.best_fitness:
            self.best_fitness = fitness
            self.best_x_bat = self.x_bat.copy()
            self.best_x_ewh = self.x_ewh.copy()


@dataclass
class FeasibleSet:
    """Collected robust trajectories plus their running per-step mean."""

    horizon: int
    trajectories: list[FlexTrajectory] = field(default_factory=list)
    fitnesses: list[int] = field(default_factory=list)
    mean_bat: np.ndarray = field(default=None)
    mean_ewh: np.ndarray = field(default=None)
    _matrix: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.mean_bat is None:
            self.mean_bat = np.zeros(self.horizon)
        if self.mean_ewh is None:
            self.mean_ewh = np.zeros(self.horizon)
        if self._matrix is None:
            self._matrix = np.empty((64, 2 * self.horizon))
        for i, traj in enumerate(self.trajectories):
            self._grow(i + 1)
            self._matrix[i] = traj.as_vector()

    def _grow(self, needed: int) -> None:
        if needed > self._matrix.shape[0]:
            bigger = np.empty((2 * self._matrix.shape[0], self._matrix.shape[1]))
            bigger[: len(self.trajectories)] = self._matrix[: len(self.trajectories)]
            self._matrix = bigger

    def __len__(self) -> int:
        return len(self.trajectories)

    def add(self, traj: FlexTrajectory, fitness: int) -> bool:
        """Insert unless a member is closer than DEDUP_TOL in max-norm.
        Returns True when the trajectory was actually added."""
        if traj.horizon != self.horizon:
            raise ValueError(f"trajectory horizon {traj.horizon} does not match set {self.horizon}")
        vector = traj.as_vector()
        n = len(self.trajectories)
        if n and float(np.min(np.max(np.abs(self._matrix[:n] - vector), axis=1))) < DEDUP_TOL:
            return False
        self._grow(n + 1)
        self._matrix[n] = vector
        self.trajectories.append(traj)
        self.fitnesses.append(int(fitness))
        self.mean_bat = self.mean_bat + (traj.p_bat - self.mean_bat) / (n + 1)
        self.mean_ewh = self.mean_ewh + (traj.p_ewh - self.mean_ewh) / (n + 1)
        return True

    def distances(self) -> np.ndarray:
        """Accumulated absolute distance of each member to the set mean."""
        n = len(self.trajectories)
        if not n:
            return np.zeros(0)
        bat = self._matrix[:n, : self.horizon]
        ewh = self._matrix[:n, self.horizon :]
        return np.abs(bat - self.mean_bat).sum(axis=1) + np.abs(ewh - self.mean_ewh).sum(axis=1)


@dataclass
class SearchResult:
    """Outcome of a swarm run, including the per-iteration log records."""

    feasible: FeasibleSet
    completed: bool
    warning: str | None
    iterations: int
    elapsed_s: float
    log: list[dict]


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic RNG stream addressed by a structural key, so results do
    not depend on evaluation order or worker count."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def mutate_weights(
    weights: np.ndarray,
    tau_learn: float,
    rng: np.random.Generator,
    clip: bool = True,
) -> np.ndarray:
    """Gaussian mutation of the strategic weights: w* = w + tau * N(0, 1),
    clamped into WEIGHT_BOUNDS unless `clip` is disabled. The swarm passes a
    decayed tau as the run progresses."""
    w = np.asarray(weights, dtype=float)
    mutated = w + tau_learn * rng.standard_normal(w.shape)
    if clip:
        mutated = np.clip(mutated, WEIGHT_BOUNDS[0], WEIGHT_BOUNDS[1])
    return mutated


def perturb_global_best(
    b_g: FlexTrajectory, tau_prime: float, rng: np.random.Generator
) -> FlexTrajectory:
    """Disturb the cooperation attractor coordinate-wise: b* = b + tau' * N(0, 1)."""
    bat = b_g.p_bat + tau_prime * rng.standard_normal(b_g.horizon)
    ewh = b_g.p_ewh + tau_prime * rng.standard_normal(b_g.horizon)
    return FlexTrajectory(p_bat=bat, p_ewh=ewh)


def move_particle(
    particle: Particle,
    b_g_star: FlexTrajectory,
    epso_cfg: EpsoConfig,
    hems_cfg: HemsConfig,
    rng: np.random.Generator,
) -> Particle:
    """Apply the movement rule with inertia, memory, and cooperation terms.

    The cooperation term acts only on coordinates picked by a Bernoulli
    communication mask. Battery coordinates are clamped to the power band and
    EWH coordinates re-quantized to the nearest of {0, p_nom}.
    """
    bat_cfg = hems_cfg.battery
    p_nom = hems_cfg.ewh.p_nom
    horizon = particle.x_bat.shape[0]
    w = particle.weights
    mask_bat = rng.random(horizon) < epso_cfg.comm_factor
    mask_ewh = rng.random(horizon) < epso_cfg.comm_factor

    v_bat = (
        w[0, 0] * particle.v_bat
        + w[0, 1] * (particle.best_x_bat - particle.x_bat)
        + w[0, 2] * mask_bat * (b_g_star.p_bat - particle.x_bat)
    )
    v_ewh = (
        w[1, 0] * particle.v_ewh
        + w[1, 1] * (particle.best_x_ewh - particle.x_ewh)
        + w[1, 2] * mask_ewh * (b_g_star.p_ewh - particle.x_ewh)
    )
    # Battery velocity is clamped tightly: SoC feasibility over a long horizon
    # tolerates only small per-step power changes. The EWH dimension keeps the
    # full span so a single move can still flip a step across the on/off
    # quantization threshold.
    bat_vmax = epso_cfg.velocity_clamp_frac * (bat_cfg.p_charge_max + bat_cfg.p_discharge_max)
    v_bat = np.clip(v_bat, -bat_vmax, bat_vmax)
    v_ewh = np.clip(v_ewh, -p_nom, p_nom)

    x_bat = np.clip(particle.x_bat + v_bat, -bat_cfg.p_discharge_max, bat_cfg.p_charge_max)
    x_ewh_raw = particle.x_ewh + v_ewh
    x_ewh = np.where(x_ewh_raw >= 0.5 * p_nom, p_nom, 0.0)

    return Particle(
        x_bat=x_bat,
        x_ewh=x_ewh,
        v_bat=v_bat,
        v_ewh=v_ewh,
        weights=w.copy(),
        best_x_bat=particle.best_x_bat.copy(),
        best_x_ewh=particle.best_x_ewh.copy(),
        best_fitness=particle.best_fitness,
    )


def evaluate_fitness(traj, scenarios: ScenarioSet, cfg: HemsConfig, dt: float) -> int:
    """Number of scenarios in which the trajectory is fully compliant: zero
    constraint penalty and the surplus-accommodation rule respected."""
    if isinstance(traj, Particle):
        traj = traj.trajectory
    zero_penalty, accommodation_ok = batch_compliance(
        traj.p_bat, traj.p_ewh, scenarios.values, cfg.ewh.draws(traj.horizon), cfg, dt
    )
    return int(np.count_nonzero(zero_penalty & accommodation_ok))


def robust_threshold(n_scenarios: int, tau_scen: float) -> int:
    """Minimum compliant-scenario count for robust feasibility: ceil(tau * N),
    guarded against float round-up on exact products."""
    return int(math.ceil(tau_scen * n_scenarios - 1e-9))


def is_robust(fitness: int, n_scenarios: int, tau_scen: float) -> bool:
    return fitness >= robust_threshold(n_scenarios, tau_scen)


def select_global_best(feasible: FeasibleSet) -> FlexTrajectory:
    """Member with the greatest accumulated absolute distance to the set mean;
    first member wins ties."""
    if not feasible.trajectories:
        raise ValueError("feasible set is empty")
    distances = feasible.distances()
    return feasible.trajectories[int(np.argmax(distances))]


def stochastic_tournament(
    parents: list[Particle],
    offspring: list[Particle],
    rng: np.random.Generator,
    win_prob: float = 0.8,
) -> list[Particle]:
    """Pairwise selection: the higher-fitness individual survives with
    probability `win_prob`, ties are a fair coin flip."""
    if len(parents) != len(offspring):
        raise ValueError("parent and offspring populations must pair up")
    survivors = []
    for parent, child in zip(parents, offspring):
        u = rng.random()
        if child.fitness > parent.fitness:
            survivors.append(child if u < win_prob else parent)
        elif child.fitness < parent.fitness:
            survivors.append(parent if u < win_prob else child)
        else:
            survivors.append(child if u < 0.5 else parent)
    return survivors


def seed_initial_population(
    scenario0: np.ndarray,
    epso_cfg: EpsoConfig,
    hems_cfg: HemsConfig,
    rng: np.random.Generator,
) -> list[Particle]:
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
    surplus_steps = scenario0 < 0.0
    n_zeroed = int(round(epso_cfg.pop_size * epso_cfg.seed_zero_fraction))

    population = []
    for i in range(epso_cfg.pop_size):
        amplitude = rng.uniform(0.05, 1.0)
        duty = rng.uniform(0.0, 0.5)
        x_bat = amplitude * rng.uniform(-bat_cfg.p_discharge_max, bat_cfg.p_charge_max, horizon)
        x_ewh = np.where(rng.random(horizon) < duty, p_nom, 0.0)
        weights = rng.uniform(0.0, 1.0, (2, 3))
        if i < n_zeroed:
            x_bat[surplus_steps] = 0.0
        population.append(
            Particle(
                x_bat=x_bat,
                x_ewh=x_ewh,
                v_bat=np.zeros(horizon),
                v_ewh=np.zeros(horizon),
                weights=weights,
                best_x_bat=x_bat.copy(),
                best_x_ewh=x_ewh.copy(),
            )
        )
    return population


def run(
    epso_cfg: EpsoConfig,
    scenarios: ScenarioSet,
    hems_cfg: HemsConfig,
    dt: float,
    threads: int = 1,
    log_sink=None,
) -> SearchResult:
    """Search until the target number of distinct robust trajectories is
    collected or the iteration budget runs out.

    Offspring that are violation-free in enough scenarios but discharge during
    surplus steps are repaired against the scenario-set surplus envelope and
    re-checked before joining the set. `log_sink`, when given, receives one
    dict per iteration. Each generation is screened in one batched kernel
    call, so `threads` is accepted for compatibility and has no effect.
    """
    t_start = time.perf_counter()
    n_scen = scenarios.count
    horizon = scenarios.horizon
    threshold = robust_threshold(n_scen, epso_cfg.tau_scen)
    scenario0 = scenarios.values[0]
    draws = hems_cfg.ewh.draws(horizon)
    # Repair against the surplus envelope: a trajectory that never discharges
    # where any scenario shows surplus passes the accommodation rule in all.
    surplus_envelope = np.maximum(0.0, -scenarios.values).max(axis=0)
    feasible = FeasibleSet(horizon=horizon)
    log: list[dict] = []

    def emit(record: dict) -> None:
        log.append(record)
        if log_sink is not None:
            log_sink(record)

    def screen(p_bat: np.ndarray, p_ewh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Compliant-scenario counts and zero-penalty counts per row."""
        zero_penalty, accommodation_ok = batch_compliance(
            p_bat, p_ewh, scenarios.values, draws, hems_cfg, dt
        )
        return (
            np.count_nonzero(zero_penalty & accommodation_ok, axis=1),
            np.count_nonzero(zero_penalty, axis=1),
        )

    def evaluate(particles: list[Particle]) -> None:
        """Score the whole population in one kernel call, repair and re-screen
        the repair candidates in one call each, then update the particles and
        the set in population order."""
        p_bat = np.stack([p.x_bat for p in particles])
        p_ewh = np.stack([p.x_ewh for p in particles])
        fitness, penalty_free = screen(p_bat, p_ewh)
        # Repair applies when the only widespread failures are
        # surplus-accommodation ones; it is skipped for trajectories the
        # envelope itself pushes into penalties.
        candidates = np.flatnonzero((fitness < threshold) & (penalty_free >= threshold))
        repaired: dict[int, tuple[np.ndarray, int]] = {}
        if candidates.size:
            fixed_bat, valid = batch_repair(
                p_bat[candidates], p_ewh[candidates], surplus_envelope, hems_cfg, dt
            )
            rows, fixed_bat = candidates[valid], fixed_bat[valid]
            if rows.size:
                fixed_fitness, _ = screen(fixed_bat, p_ewh[rows])
                repaired = {int(i): (b, int(f)) for i, b, f in zip(rows, fixed_bat, fixed_fitness)}
        for i, particle in enumerate(particles):
            particle.note_evaluation(int(fitness[i]))
            if fitness[i] >= threshold:
                feasible.add(particle.trajectory, int(fitness[i]))
            elif i in repaired and repaired[i][1] >= threshold:
                fixed, fixed_fitness = repaired[i]
                feasible.add(FlexTrajectory(p_bat=fixed, p_ewh=particle.x_ewh.copy()), fixed_fitness)

    def best_distance() -> float:
        return float(np.max(feasible.distances())) if len(feasible) else 0.0

    population = seed_initial_population(scenario0, epso_cfg, hems_cfg, _stream(epso_cfg.seed, 0))
    evaluate(population)
    emit(
        {
            "iteration": 0,
            "feasible": len(feasible),
            "best_distance": best_distance(),
            "mutation_rate": epso_cfg.mutation_max,
        }
    )

    iterations = 0
    for it in range(1, epso_cfg.max_iters + 1):
        if len(feasible) >= epso_cfg.target_feasible:
            break
        iterations = it
        progress = (it - 1) / max(1, epso_cfg.max_iters - 1)
        rate = epso_cfg.mutation_max + (epso_cfg.mutation_min - epso_cfg.mutation_max) * progress
        tau_effective = epso_cfg.tau_learn * rate

        if len(feasible):
            b_g = select_global_best(feasible)
        else:
            b_g = max(population, key=lambda p: p.fitness).trajectory
        distance = best_distance()

        offspring = []
        for i, parent in enumerate(population):
            rng_move = _stream(epso_cfg.seed, 1, it, i)
            child = Particle(
                x_bat=parent.x_bat.copy(),
                x_ewh=parent.x_ewh.copy(),
                v_bat=parent.v_bat.copy(),
                v_ewh=parent.v_ewh.copy(),
                weights=mutate_weights(parent.weights, tau_effective, rng_move),
                best_x_bat=parent.best_x_bat.copy(),
                best_x_ewh=parent.best_x_ewh.copy(),
                best_fitness=parent.best_fitness,
            )
            b_g_star = perturb_global_best(b_g, epso_cfg.tau_prime, rng_move)
            offspring.append(move_particle(child, b_g_star, epso_cfg, hems_cfg, rng_move))

        evaluate(offspring)

        population = stochastic_tournament(
            population, offspring, _stream(epso_cfg.seed, 2, it), epso_cfg.tournament_win_prob
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
        log=log,
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"pbat_h{k}" for k in range(1, horizon + 1)]
            + [f"pewh_h{k}" for k in range(1, horizon + 1)]
            + ["fitness"]
        )
        for traj, fitness in zip(trajectories, fitnesses):
            writer.writerow(
                [repr(float(x)) for x in traj.p_bat]
                + [repr(float(x)) for x in traj.p_ewh]
                + [int(fitness)]
            )


def read_trajectories_csv(path) -> tuple[list[FlexTrajectory], list[int]]:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or not header[0].startswith("pbat_h"):
            raise ValueError(f"{path}: missing trajectory header pbat_h1..")
        if header[-1] != "fitness":
            raise ValueError(f"{path}: last column must be fitness")
        horizon = (len(header) - 1) // 2
        trajectories: list[FlexTrajectory] = []
        fitnesses: list[int] = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2 * horizon + 1:
                raise ValueError(f"{path}: row has {len(row)} fields, expected {2 * horizon + 1}")
            values = [float(x) for x in row[:-1]]
            trajectories.append(
                FlexTrajectory(
                    p_bat=np.array(values[:horizon]), p_ewh=np.array(values[horizon:])
                )
            )
            fitnesses.append(int(row[-1]))
    return trajectories, fitnesses
