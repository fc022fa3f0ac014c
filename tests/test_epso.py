"""Swarm-search checks: weight mutation, attractor perturbation, the movement
rule, fitness evaluation, robustness predicate, diversity-driven global best,
tournament selection, seeding, and full runs on easy and impossible instances."""

import csv
import importlib.util
import math
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hemsflex
from hemsflex import analysis, cli, epso, hems, scenarios, svdd
from hemsflex.epso import (
    EpsoConfig,
    FeasibleSet,
    Swarm,
    evaluate_fitness,
    move_particle,
    mutate_weights,
    perturb_global_best,
    read_trajectories_csv,
    robust_threshold,
    run,
    seed_initial_population,
    select_global_best,
    stochastic_tournament,
    write_trajectories_csv,
)
from hemsflex.hems import EwhConfig, FlexTrajectory, HemsConfig, TrajectorySet


def make_swarm(x_bat, x_ewh, weights=None, fitness=-1):
    """Swarm at rest with one [x_bat | x_ewh] row per row of x_bat / x_ewh (a
    1-D position is one row); every row shares `weights` and `fitness`."""
    x = np.hstack([np.atleast_2d(np.asarray(x_bat, dtype=float)), np.atleast_2d(np.asarray(x_ewh, dtype=float))])
    size = x.shape[0]
    if weights is None:
        weights = np.full((2, 3), 0.5)
    return Swarm(
        x=x,
        v=np.zeros_like(x),
        weights=np.tile(np.asarray(weights, dtype=float), (size, 1, 1)),
        best_x=x.copy(),
        best_fitness=np.full(size, -1),
        fitness=np.full(size, fitness),
    )


def move(swarm, b_g_star, hems_cfg, rng):
    """move_particle with every row attracted to the row b_g_star, each row's
    communication mask drawn from `rng` in row order as the search does."""
    mask = rng.random(swarm.x.shape) < epso.COMM_FACTOR
    return move_particle(swarm, np.broadcast_to(b_g_star, swarm.x.shape), mask, hems_cfg)


def move_per_dimension(swarm, star, mask, hems_cfg):
    """The movement rule written out per dimension, one velocity expression
    for the battery half of the rows and one for the EWH half, as the swarm
    moved before it kept whole rows. Returns the moved (x, v) rows."""
    bat_cfg, p_nom = hems_cfg.battery, hems_cfg.ewh.p_nom
    horizon = swarm.x.shape[1] // 2
    w = swarm.weights[:, :, :, None]
    x_bat, x_ewh = swarm.x[:, :horizon], swarm.x[:, horizon:]
    v_bat = (
        w[:, 0, 0] * swarm.v[:, :horizon]
        + w[:, 0, 1] * (swarm.best_x[:, :horizon] - x_bat)
        + w[:, 0, 2] * mask[:, :horizon] * (star[:, :horizon] - x_bat)
    )
    v_ewh = (
        w[:, 1, 0] * swarm.v[:, horizon:]
        + w[:, 1, 1] * (swarm.best_x[:, horizon:] - x_ewh)
        + w[:, 1, 2] * mask[:, horizon:] * (star[:, horizon:] - x_ewh)
    )
    bat_vmax = epso.VELOCITY_CLAMP_FRAC * (bat_cfg.p_charge_max + bat_cfg.p_discharge_max)
    v_bat = np.clip(v_bat, -bat_vmax, bat_vmax)
    v_ewh = np.clip(v_ewh, -p_nom, p_nom)
    x_bat = np.clip(x_bat + v_bat, -bat_cfg.p_discharge_max, bat_cfg.p_charge_max)
    x_ewh = np.where(x_ewh + v_ewh >= 0.5 * p_nom, p_nom, 0.0)
    return np.hstack([x_bat, x_ewh]), np.hstack([v_bat, v_ewh])


def perturb_per_dimension(b, tau_prime, rng):
    """The attractor perturbation as two draws of T normals, battery first."""
    horizon = b.shape[0] // 2
    bat = b[:horizon] + tau_prime * rng.standard_normal(horizon)
    ewh = b[horizon:] + tau_prime * rng.standard_normal(horizon)
    return np.concatenate([bat, ewh])


def bits(a):
    """The array's float64 bits, so that -0.0 and 0.0 count as different."""
    return np.ascontiguousarray(a).view(np.int64)


class TestMutateWeights:
    def test_zero_tau_is_identity(self):
        w = np.full((2, 3), 0.7)
        out = mutate_weights(w, 0.0, np.random.default_rng(1))
        assert np.array_equal(out, w)

    def test_fixed_seed_reproducible(self):
        w = np.full((2, 3), 0.7)
        a = mutate_weights(w, 5.0, np.random.default_rng(2))
        b = mutate_weights(w, 5.0, np.random.default_rng(2))
        assert np.array_equal(a, b)

    def test_mutation_scale_matches_tau(self):
        rng = np.random.default_rng(3)
        tau = 0.2  # five sigma inside WEIGHT_BOUNDS, so the clip never binds
        draws = np.array([mutate_weights(np.ones((1, 1)), tau, rng)[0, 0] for _ in range(10_000)])
        assert np.std(draws) == pytest.approx(tau, rel=0.05)

    def test_clipped_into_weight_bounds(self):
        rng = np.random.default_rng(4)
        out = mutate_weights(np.ones((2, 3)), 5.0, rng)
        assert np.all(out >= 0.0) and np.all(out <= 2.0)

    def test_smaller_tau_moves_weights_less(self):
        w = np.full((2, 3), 1.0)
        # both taus keep every draw of this seed inside WEIGHT_BOUNDS
        big = mutate_weights(w, 0.5, np.random.default_rng(5))
        small = mutate_weights(w, 0.05, np.random.default_rng(5))
        assert np.all(np.abs(small - w) < np.abs(big - w))


class TestPerturbGlobalBest:
    def test_zero_tau_prime_is_identity(self):
        b = np.array([0.1, 0.2, 0.5, 0.0])
        out = perturb_global_best(b, 0.0, np.random.default_rng(6))
        assert np.array_equal(out[:2], b[:2])
        assert np.array_equal(out[2:], b[2:])

    def test_mean_of_perturbations_recovers_center(self):
        b = np.array([0.3, 0.5])
        tau_prime = 1.0
        n = 10_000
        rng = np.random.default_rng(7)
        bats = np.array([perturb_global_best(b, tau_prime, rng)[0] for _ in range(n)])
        assert abs(bats.mean() - 0.3) < 3.0 * tau_prime / np.sqrt(n)

    def test_coordinates_perturbed_independently(self):
        out = perturb_global_best(np.zeros(8), 1.0, np.random.default_rng(8))
        assert len(np.unique(out[:4])) == 4
        assert len(np.unique(out[4:])) == 4


class TestMoveParticle:
    @pytest.fixture
    def hems_cfg(self, hems_reference):
        return hems_reference

    def test_fixed_point_when_everything_coincides(self, hems_cfg):
        x = make_swarm([0.2, -0.1], [0.5, 0.0])
        bg = x.x[0].copy()
        out = move(x, bg, hems_cfg, np.random.default_rng(9))
        assert np.allclose(out.x[:, :2], x.x[:, :2])
        assert np.array_equal(out.x[:, 2:], x.x[:, 2:])

    def test_pure_inertia_reduction(self, hems_cfg):
        p = make_swarm([0.0, 0.0], [0.0, 0.0], weights=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p.v[:, :2] = [[0.3, -0.2]]
        bg = np.zeros(4)
        out = move(p, bg, hems_cfg, np.random.default_rng(10))
        assert np.allclose(out.x[0, :2], [0.3, -0.2])

    def test_ewh_quantized_to_nearest_level(self, hems_cfg):
        p = make_swarm([0.0], [0.0], weights=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p.v[:, 1:] = [[0.26]]
        bg = np.zeros(2)
        out = move(p, bg, hems_cfg, np.random.default_rng(11))
        assert out.x[0, 1] == 0.5
        p.v[:, 1:] = [[0.24]]
        out = move(p, bg, hems_cfg, np.random.default_rng(11))
        assert out.x[0, 1] == 0.0

    def test_battery_clamped_to_power_band(self, hems_cfg):
        rng = np.random.default_rng(12)
        p = make_swarm(np.full(8, 1.4), np.zeros(8))
        p.v[:, :8] = np.full((1, 8), 5.0)
        bg = np.r_[np.full(8, 10.0), np.zeros(8)]
        out = move(p, bg, hems_cfg, rng)
        assert np.all(out.x[:, :8] <= hems_cfg.battery.p_charge_max)
        assert np.all(out.x[:, :8] >= -hems_cfg.battery.p_discharge_max)

    def test_rows_move_as_the_per_particle_rule(self, hems_cfg):
        bat_cfg, p_nom = hems_cfg.battery, hems_cfg.ewh.p_nom
        rng = np.random.default_rng(13)
        size, horizon = 6, 10
        x_ewh = np.where(rng.random((size, horizon)) < 0.5, p_nom, 0.0)
        swarm = make_swarm(rng.uniform(-1.5, 1.5, (size, horizon)), x_ewh)
        v_bat_in = rng.uniform(-0.3, 0.3, (size, horizon))
        v_ewh_in = rng.uniform(-0.5, 0.5, (size, horizon))
        swarm.v = np.hstack([v_bat_in, v_ewh_in])
        swarm.weights = rng.uniform(0.0, 2.0, (size, 2, 3))
        best_bat = rng.uniform(-1.5, 1.5, (size, horizon))
        best_ewh = np.where(rng.random((size, horizon)) < 0.5, p_nom, 0.0)
        swarm.best_x = np.hstack([best_bat, best_ewh])
        star_bat = rng.uniform(-1.5, 1.5, (size, horizon))
        star_ewh = rng.uniform(-0.5, 1.0, (size, horizon))
        mask_bat, mask_ewh = rng.random((2, size, horizon)) < 0.5
        out = move_particle(swarm, np.hstack([star_bat, star_ewh]), np.hstack([mask_bat, mask_ewh]), hems_cfg)
        bat_vmax = epso.VELOCITY_CLAMP_FRAC * (bat_cfg.p_charge_max + bat_cfg.p_discharge_max)
        for i in range(size):
            # the movement rule written out for one particle with scalar weights
            w = swarm.weights[i]
            x_bat, x_ewh = swarm.x[i, :horizon], swarm.x[i, horizon:]
            v_bat = (
                w[0, 0] * v_bat_in[i]
                + w[0, 1] * (best_bat[i] - x_bat)
                + w[0, 2] * mask_bat[i] * (star_bat[i] - x_bat)
            )
            v_ewh = (
                w[1, 0] * v_ewh_in[i]
                + w[1, 1] * (best_ewh[i] - x_ewh)
                + w[1, 2] * mask_ewh[i] * (star_ewh[i] - x_ewh)
            )
            v_bat = np.clip(v_bat, -bat_vmax, bat_vmax)
            v_ewh = np.clip(v_ewh, -p_nom, p_nom)
            assert np.array_equal(out.v[i, :horizon], v_bat)
            assert np.array_equal(out.v[i, horizon:], v_ewh)
            assert np.array_equal(
                out.x[i, :horizon], np.clip(x_bat + v_bat, -bat_cfg.p_discharge_max, bat_cfg.p_charge_max)
            )
            assert np.array_equal(out.x[i, horizon:], np.where(x_ewh + v_ewh >= 0.5 * p_nom, p_nom, 0.0))
        for name in ("weights", "best_x", "best_fitness"):
            assert np.array_equal(getattr(out, name), getattr(swarm, name)), name


# Finite cells whose differences stay finite, both zeros included.
_ROW_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.5, 1.5]), st.floats(-100.0, 100.0))


@st.composite
def _row_swarms(draw):
    """(swarm, star, mask) for P in 1..6 and T in 1..12: positions, velocities,
    personal bests, attractors, masks and weights all drawn."""
    size, horizon = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rows = hnp.arrays(float, (size, 2 * horizon), elements=_ROW_CELLS)
    swarm = Swarm(
        x=draw(rows),
        v=draw(rows),
        weights=draw(hnp.arrays(float, (size, 2, 3), elements=st.floats(0.0, 2.0))),
        best_x=draw(rows),
        best_fitness=np.full(size, -1),
        fitness=np.full(size, -1),
    )
    return swarm, draw(rows), draw(hnp.arrays(bool, (size, 2 * horizon)))


class TestRowLayout:
    """The row versions of the move and of the attractor perturbation against
    the per-dimension rules they replace, bit for bit."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=_row_swarms())
    def test_move_matches_the_per_dimension_rule(self, hems_reference, drawn):
        swarm, star, mask = drawn
        out = move_particle(swarm, star, mask, hems_reference)
        x, v = move_per_dimension(swarm, star, mask, hems_reference)
        assert np.array_equal(bits(out.x), bits(x))
        assert np.array_equal(bits(out.v), bits(v))

    @settings(max_examples=200, deadline=None)
    @given(
        b=st.integers(1, 12).flatmap(lambda horizon: hnp.arrays(float, 2 * horizon, elements=_ROW_CELLS)),
        tau_prime=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_perturbation_and_mask_match_the_two_draws(self, b, tau_prime, seed):
        # The search draws the attractor, then the mask, from one stream.
        horizon = b.shape[0] // 2
        rows, halves = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = perturb_per_dimension(b, tau_prime, halves)
        assert np.array_equal(bits(perturb_global_best(b, tau_prime, rows)), bits(expected))
        assert np.array_equal(rows.random(2 * horizon), halves.random((2, horizon)).ravel())
        assert rows.random() == halves.random()


class TestEvaluateFitness:
    def test_feasible_everywhere_scores_full(self, small_instance):
        scenario_set, cfg = small_instance
        zero = FlexTrajectory(p_bat=np.zeros(16), p_ewh=np.zeros(16))
        assert evaluate_fitness(zero, scenario_set, cfg, 0.25) == scenario_set.count

    def test_scenario_counts_zero_or_one(self, small_instance):
        scenario_set, cfg = small_instance
        # deep discharge violates the SoC floor in every scenario
        bad = FlexTrajectory(p_bat=np.full(16, -1.5), p_ewh=np.zeros(16))
        assert evaluate_fitness(bad, scenario_set, cfg, 0.25) == 0

    def test_single_step_violation_zeroes_the_scenario(self, small_instance):
        scenario_set, cfg = small_instance
        p_bat = np.zeros(16)
        p_bat[-1] = -1.5  # one violating step at the end
        traj = FlexTrajectory(p_bat=p_bat, p_ewh=np.zeros(16))
        fit = evaluate_fitness(traj, scenario_set, cfg, 0.25)
        oracle = analysis.oracle_check(traj, scenario_set, cfg, 0.25)
        assert fit == oracle  # agreement, regardless of which scenarios fail

    def test_never_exceeds_scenario_count(self, small_instance):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(13)
        for _ in range(50):
            traj = FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, 16), p_ewh=np.where(rng.random(16) < 0.3, 0.5, 0.0)
            )
            assert 0 <= evaluate_fitness(traj, scenario_set, cfg, 0.25) <= scenario_set.count


class TestIsRobust:
    def test_ninety_of_hundred_is_robust(self):
        assert 90 >= robust_threshold(100, 0.9)

    def test_eighty_nine_is_not(self):
        assert not 89 >= robust_threshold(100, 0.9)

    def test_tau_one_requires_all(self):
        assert 100 >= robust_threshold(100, 1.0)
        assert not 99 >= robust_threshold(100, 1.0)

    def test_full_fitness_is_robust_for_any_tau(self):
        for tau in (0.1, 0.5, 0.9, 0.99, 1.0):
            assert 100 >= robust_threshold(100, tau)

    def test_threshold_handles_float_products(self):
        # 0.9 * 100 overshoots 90 in floats; the threshold must stay at 90
        assert robust_threshold(100, 0.9) == 90
        assert robust_threshold(100, 0.905) == 91
        assert robust_threshold(20, 0.9) == 18

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(14)
        fits = rng.integers(0, 101, size=200)
        taus = [0.5, 0.7, 0.9, 0.95, 1.0]
        accepted = [set(np.flatnonzero([f >= robust_threshold(100, t) for f in fits])) for t in taus]
        for small, large in zip(accepted[1:], accepted[:-1]):
            assert small <= large


class TestSelectGlobalBest:
    def test_singleton_returns_member(self):
        fs = FeasibleSet(horizon=4)
        row = np.r_[np.full(4, 0.2), np.zeros(4)]
        fs.add(row, 10)
        best = select_global_best(fs)
        assert np.array_equal(best[:4], row[:4]) and np.array_equal(best[4:], row[4:])

    def test_symmetric_pair_ties_to_first(self):
        fs = FeasibleSet(horizon=4)
        first = np.zeros(8)
        fs.add(first, 10)
        fs.add(np.r_[np.ones(4), np.full(4, 0.5)], 10)
        distances = fs.distances()
        assert distances[0] == pytest.approx(distances[1], abs=1e-12)
        # hand evaluation: per step |0-0.5| + |0-0.25| = 0.75, times 4 steps
        assert distances[0] == pytest.approx(3.0, abs=1e-12)
        best = select_global_best(fs)
        assert np.array_equal(best[:4], first[:4]) and np.array_equal(best[4:], first[4:])

    def test_outlier_member_wins(self):
        fs = FeasibleSet(horizon=2)
        for v in (0.0, 0.1, 0.2):
            fs.add(np.r_[np.full(2, v), np.zeros(2)], 5)
        fs.add(np.r_[np.full(2, 1.5), np.full(2, 0.5)], 5)
        best = select_global_best(fs)
        assert np.all(best[:2] == 1.5)

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            select_global_best(FeasibleSet(horizon=3))


class TestFeasibleSet:
    def test_deduplicates_close_trajectories(self):
        fs = FeasibleSet(horizon=3)
        a = np.r_[0.1, 0.2, 0.3, np.zeros(3)]
        b = np.r_[0.1, 0.2, 0.3 + 1e-8, np.zeros(3)]
        c = np.r_[0.1, 0.2, 0.4, np.zeros(3)]
        assert fs.add(a, 10)
        assert not fs.add(b, 10)
        assert fs.add(c, 10)
        assert len(fs) == 2

    def test_running_mean_matches_batch_mean(self):
        rng = np.random.default_rng(15)
        fs = FeasibleSet(horizon=5)
        rows = [np.r_[rng.uniform(-1, 1, 5), np.where(rng.random(5) < 0.5, 0.5, 0.0)] for _ in range(40)]
        for row in rows:
            fs.add(row, 1)
        assert np.allclose(fs.mean[:5], np.mean([t.p_bat for t in fs.trajectories], axis=0))
        assert np.allclose(fs.mean[5:], np.mean([t.p_ewh for t in fs.trajectories], axis=0))

    def test_growth_keeps_members_and_distances(self):
        rng = np.random.default_rng(25)
        horizon = 3
        fs = FeasibleSet(horizon=horizon)
        rows = rng.uniform(-1, 1, (200, 2 * horizon))
        early = []
        for k, row in enumerate(rows):
            assert fs.add(row, k)
            if k in (0, 63, 127):
                early.append((k, fs.trajectories))  # read just before the buffer grows
        assert len(fs) == 200 and fs.fitnesses == list(range(200))
        for k, members in early:
            assert len(members) == k + 1 and np.array_equal(members[k].as_vector(), rows[k])
            assert np.array_equal(members.matrix, rows[: k + 1])
        assert np.array_equal(fs.trajectories.matrix, rows)
        expected = np.abs(rows[:, :horizon] - fs.mean[:horizon]).sum(axis=1) + np.abs(
            rows[:, horizon:] - fs.mean[horizon:]
        ).sum(axis=1)
        assert np.array_equal(fs.distances(), expected)
        near = rows[0] + 0.5e-6
        assert not fs.add(near, 1)
        assert len(fs) == 200

    def test_distances_computed_once_per_state(self):
        fs = FeasibleSet(horizon=2)
        fs.add(np.array([0.5, 0.0, 0.0, 0.0]), 1)
        first = fs.distances()
        assert fs.distances() is first and not first.flags.writeable
        fs.add(np.array([-0.5, 0.0, 0.0, 0.0]), 1)
        assert fs.distances() is not first and np.array_equal(fs.distances(), [0.5, 0.5])

    def test_run_computes_distances_once_per_generation(self, small_instance, monkeypatch):
        # The global best and the logged distance come from one array.
        scenario_set, cfg = small_instance
        fills, records = [], []
        distances = FeasibleSet.distances

        def counted(self):
            fills.append(self._distances is None)
            return distances(self)

        monkeypatch.setattr(FeasibleSet, "distances", counted)
        epso_cfg = EpsoConfig(pop_size=8, max_iters=30, target_feasible=10_000, seed=6)
        run(epso_cfg, scenario_set, cfg, dt=0.25, log_sink=records.append)
        assert sum(fills) <= len(records) and len(fills) > sum(fills)

    def test_members_are_read_only(self):
        fs = FeasibleSet(horizon=2)
        row = np.zeros(4)
        fs.add(row, 1)
        with pytest.raises(ValueError):
            fs.trajectories.matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            fs.trajectories[0].p_ewh[1] = 0.5
        # The set holds a copy of the row it was offered.
        row[0] = 1.0
        assert fs.trajectories.matrix[0, 0] == 0.0

    @pytest.mark.parametrize("shape", [(0,), (3,), (5,), (8,), (1, 4)])
    def test_row_of_the_wrong_width_rejected(self, shape):
        fs = FeasibleSet(horizon=2)
        with pytest.raises(ValueError, match=rf"row has shape \({shape[0]},.*the set's rows are 4 wide"):
            fs.add(np.zeros(shape), 1)
        assert len(fs) == 0 and not fs.mean.any()



class _FullScanSet:
    """The duplicate test of `FeasibleSet.add` as a scan of every member in
    max-norm, with the buffer it fills: the reference that the set's sum
    index must match on every return value and every byte."""

    def __init__(self, horizon):
        self.rows = np.empty((0, 2 * horizon))
        self.fitnesses = []

    def add(self, row, fitness):
        vector = np.asarray(row, dtype=float)
        if len(self.rows) and float(np.min(np.max(np.abs(self.rows - vector), axis=1))) < epso.DEDUP_TOL:
            return False
        self.rows = np.vstack([self.rows, vector])
        self.fitnesses.append(int(fitness))
        return True


TOL = epso.DEDUP_TOL
# Coordinate offsets on DEDUP_TOL and one ulp either side of it, of both signs.
TOL_OFFSETS = [
    sign * offset
    for offset in (TOL, np.nextafter(TOL, 0.0), np.nextafter(TOL, 1.0), TOL / 2, 0.0)
    for sign in (1.0, -1.0)
]
# Entries that make a row non-finite or its sum overflow, or sit near the limits.
SPECIAL_ENTRIES = [np.nan, np.inf, -np.inf, 1e308, -1e308, np.finfo(float).max, 5e-324, -0.0]


def _adversarial_offers(data, width):
    """Rows to offer a set in turn: each built from an earlier offer (or the
    zero row) by one of the rules below. An "edge" rule offers two rows: a
    member whose row sum lies exactly on, or one ulp about, the end of the
    sum window of the row offered after it."""
    offered = [np.zeros(width)]
    kinds = ["fresh", "copy", "offset", "signed zero", "permuted", "edge", "special", "huge"]
    for _ in range(data.draw(st.integers(1, 24), label="offers")):
        base = offered[data.draw(st.integers(0, len(offered) - 1), label="base")]
        kind = data.draw(st.sampled_from(kinds), label="kind")
        rows = [base.copy()]
        if kind == "fresh":
            values = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 0.5, 1.0, TOL])
            rows = [data.draw(hnp.arrays(float, width, elements=values), label="fresh")]
        elif kind == "offset":
            for j in data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width), label="coords"):
                rows[0][j] = base[j] + data.draw(st.sampled_from(TOL_OFFSETS), label="offset")
        elif kind == "signed zero":
            rows[0] = np.where(base == 0.0, -base, base)
        elif kind == "permuted":
            # A different row with the same sum, whenever two entries differ.
            rows[0] = base[data.draw(st.permutations(range(width)), label="order")]
        elif kind == "edge":
            a = data.draw(st.floats(-3.0, 3.0) | st.sampled_from([0.0, 1e300, -1e300]), label="sum")
            end = data.draw(st.sampled_from([-1.0, 1.0]), label="end")
            member = np.zeros(width)
            edge = a + end * epso._sum_window(width, a)
            ulps = [edge, np.nextafter(edge, end * np.inf), np.nextafter(edge, -end * np.inf)]
            member[0] = data.draw(st.sampled_from(ulps), label="ulp")
            rows = [member, np.r_[a, np.zeros(width - 1)]]
        elif kind == "special":
            for j in data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=2), label="coords"):
                rows[0][j] = data.draw(st.sampled_from(SPECIAL_ENTRIES), label="entry")
        elif kind == "huge":
            # Finite rows whose sum overflows, and one ulp below it.
            rows[0] = np.full(width, data.draw(st.sampled_from([1e308, -1e308, 9e307]), label="huge"))
        offered.extend(rows)
        yield from rows


def _summable(row):
    """Whether a row is finite and `math.fsum` does not overflow on it."""
    try:
        return math.isfinite(math.fsum(row.tolist()))
    except (OverflowError, ValueError):
        return False


class TestFeasibleSetIndex:
    """`FeasibleSet.add` compares a row only with the members whose row sum
    lies in a window around its own; every decision and the buffer must be
    those of a full scan. A row that is not finite, or whose sum overflows,
    is refused with ValueError and leaves the set as it was."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_add_matches_the_full_scan(self, data):
        horizon = data.draw(st.integers(1, 3), label="horizon")
        indexed, reference = FeasibleSet(horizon), _FullScanSet(horizon)
        # Huge differences warn in either route, where tier-1 makes a warning
        # an error.
        with np.errstate(over="ignore"):
            for k, row in enumerate(_adversarial_offers(data, 2 * horizon)):
                if _summable(row):
                    assert indexed.add(row, k) == reference.add(row, k), k
                else:
                    with pytest.raises(ValueError, match="^row (holds a non-finite value|is too large to sum)"):
                        indexed.add(row, k)
                    assert indexed.trajectories.matrix.tobytes() == reference.rows.tobytes()
        assert indexed.trajectories.matrix.tobytes() == reference.rows.tobytes()
        assert indexed.fitnesses == reference.fitnesses

    def test_a_row_one_ulp_inside_the_tolerance_is_a_duplicate(self):
        fs = FeasibleSet(horizon=1)
        assert fs.add(np.zeros(2), 1)
        assert not fs.add(np.array([np.nextafter(TOL, 0.0), -np.nextafter(TOL, 0.0)]), 1)
        assert fs.add(np.array([TOL, 0.0]), 1)
        assert len(fs) == 2

    def test_a_duplicate_whose_sums_round_apart_is_found(self):
        # Each entry of `near` lies less than DEDUP_TOL below the one of
        # `row`, but the rounded row sums lie more than 2 DEDUP_TOL apart: a
        # window of exactly 2 DEDUP_TOL around either sum misses the other.
        row = np.array([1.8636400902455756, 1.9811950400663443])
        near = np.array([1.8636390902455757, 1.9811940400663444])
        assert np.max(np.abs(row - near)) < TOL
        assert math.fsum(row.tolist()) - math.fsum(near.tolist()) > 2 * TOL
        for first, second in ((row, near), (near, row)):
            fs = FeasibleSet(horizon=1)
            assert fs.add(first, 1)
            assert not fs.add(second, 1)

    def test_a_nan_row_is_refused_and_duplicates_stay_out(self):
        # A NaN member would make every later least distance NaN, which is
        # not below the tolerance, and let the same row in again and again.
        fs = FeasibleSet(horizon=1)
        assert fs.add(np.zeros(2), 1)
        with pytest.raises(ValueError, match="^row holds a non-finite value$"):
            fs.add(np.array([np.nan, 5.0]), 1)
        for _ in range(3):
            assert not fs.add(np.zeros(2), 1)
        assert len(fs) == 1 and fs.fitnesses == [1]

    def test_a_row_whose_sum_overflows_is_refused(self):
        fs = FeasibleSet(horizon=1)
        with pytest.raises(ValueError, match="^row is too large to sum"):
            fs.add(np.array([1e308, 1e308]), 1)
        assert len(fs) == 0
        with np.errstate(over="ignore"):
            assert fs.add(np.array([1e308, -1e308]), 1)
            assert not fs.add(np.array([1e308, -1e308]), 1)
            assert fs.add(np.array([-1e308, 1e308]), 1)
        assert len(fs) == 2

class TestStochasticTournament:
    # Each pair draws one uniform, in row order, so a swarm of n pairs sees
    # the same draws as n one-pair tournaments in a row.
    def test_equal_fitness_is_fair_coin(self):
        rng = np.random.default_rng(16)
        n = 10_000
        par = make_swarm(np.zeros((n, 1)), np.zeros((n, 1)), fitness=5)
        off = make_swarm(np.ones((n, 1)), np.zeros((n, 1)), fitness=5)
        survivors = stochastic_tournament(par, off, rng, 0.8)
        wins = np.count_nonzero(survivors.x[:, 0] == off.x[:, 0])
        assert wins / n == pytest.approx(0.5, abs=0.02)

    def test_win_probability_one_is_elitist(self):
        rng = np.random.default_rng(17)
        par = make_swarm(np.zeros((100, 1)), np.zeros((100, 1)), fitness=100)
        off = make_swarm(np.ones((100, 1)), np.zeros((100, 1)), fitness=50)
        survivors = stochastic_tournament(par, off, rng, win_prob=1.0)
        for name, value in vars(survivors).items():
            assert np.array_equal(value, getattr(par, name)), name

    def test_better_survives_about_eighty_percent(self):
        rng = np.random.default_rng(18)
        n = 10_000
        par = make_swarm(np.zeros((n, 1)), np.zeros((n, 1)), fitness=100)
        off = make_swarm(np.ones((n, 1)), np.zeros((n, 1)), fitness=50)
        survivors = stochastic_tournament(par, off, rng, 0.8)
        wins = np.count_nonzero(survivors.x[:, 0] == par.x[:, 0])
        assert wins / n == pytest.approx(0.8, abs=0.015)

    def test_population_size_preserved(self):
        rng = np.random.default_rng(19)
        parents = make_swarm(np.zeros((7, 1)), np.zeros((7, 1)))
        parents.fitness = np.arange(7)
        offspring = make_swarm(np.ones((7, 1)), np.zeros((7, 1)))
        offspring.fitness = 7 - np.arange(7)
        assert len(stochastic_tournament(parents, offspring, rng, 0.8)) == 7

    def test_survivors_are_whole_rows_picked_by_the_pairwise_rule(self):
        n, win_prob = 60, 0.8
        par = make_swarm(np.zeros((n, 2)), np.zeros((n, 2)))
        off = make_swarm(np.ones((n, 2)), np.full((n, 2), 0.5), weights=np.ones((2, 3)))
        par.fitness, off.fitness = np.full(n, 5), np.tile([4, 5, 6], n // 3)
        for swarm, value in ((par, -1.0), (off, 1.0)):
            swarm.v = np.hstack([np.full((n, 2), value), np.full((n, 2), 2 * value)])
            swarm.best_x = np.hstack([np.full((n, 2), 3 * value), np.full((n, 2), 4 * value)])
            swarm.best_fitness = np.full(n, int(5 * value))
        survivors = stochastic_tournament(par, off, np.random.default_rng(26), win_prob)
        draws = np.random.default_rng(26)
        for i in range(n):
            # one pair at a time, one uniform each
            u = draws.random()
            if off.fitness[i] > par.fitness[i]:
                winner = off if u < win_prob else par
            elif off.fitness[i] < par.fitness[i]:
                winner = par if u < win_prob else off
            else:
                winner = off if u < 0.5 else par
            for name, value in vars(survivors).items():
                assert np.array_equal(value[i], getattr(winner, name)[i]), (i, name)


class TestSeedInitialPopulation:
    def test_respects_power_bounds(self, hems_reference):
        cfg = EpsoConfig(pop_size=20, seed=1)
        scenario0 = np.linspace(0.5, -0.5, 12)
        pop = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(20))
        for x_bat, x_ewh in zip(pop.x[:, :12], pop.x[:, 12:]):
            assert np.all(x_bat <= hems_reference.battery.p_charge_max)
            assert np.all(x_bat >= -hems_reference.battery.p_discharge_max)
            assert set(np.unique(x_ewh)) <= {0.0, hems_reference.ewh.p_nom}

    def test_zeroed_fraction_has_zero_battery_on_surplus_steps(self, hems_reference):
        cfg = EpsoConfig(pop_size=20, seed=1)
        scenario0 = np.linspace(0.5, -0.5, 12)
        surplus_steps = scenario0 < 0
        pop = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(21))
        for x_bat in pop.x[: round(cfg.pop_size * epso.SEED_ZERO_FRACTION), :12]:
            assert np.all(x_bat[surplus_steps] == 0.0)

    def test_fixed_seed_identical(self, hems_reference):
        cfg = EpsoConfig(pop_size=5, seed=1)
        scenario0 = np.linspace(0.5, -0.5, 6)
        a = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(22))
        b = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(22))
        for i in range(len(a)):
            assert np.array_equal(a.x[i, :6], b.x[i, :6])
            assert np.array_equal(a.x[i, 6:], b.x[i, 6:])
            assert np.array_equal(a.weights[i], b.weights[i])


class TestRun:
    def test_easy_instance_reaches_small_target_quickly(self, small_instance):
        scenario_set, cfg = small_instance
        epso_cfg = EpsoConfig(pop_size=10, max_iters=100, target_feasible=5, seed=2)
        result = run(epso_cfg, scenario_set, cfg, dt=0.25)
        assert result.completed
        assert len(result.feasible) >= 5
        assert result.warning is None

    def test_every_emission_verified_by_oracle(self, small_instance):
        scenario_set, cfg = small_instance
        epso_cfg = EpsoConfig(pop_size=10, max_iters=200, target_feasible=40, seed=3)
        result = run(epso_cfg, scenario_set, cfg, dt=0.25)
        threshold = robust_threshold(scenario_set.count, epso_cfg.tau_scen)
        for traj, fitness in zip(result.feasible.trajectories, result.feasible.fitnesses):
            assert analysis.oracle_check(traj, scenario_set, cfg, 0.25) == fitness
            assert fitness >= threshold
            assert set(np.unique(traj.p_ewh)) <= {0.0, cfg.ewh.p_nom}
            assert np.all(traj.p_bat <= cfg.battery.p_charge_max + 1e-12)
            assert np.all(traj.p_bat >= -cfg.battery.p_discharge_max - 1e-12)

    def test_fixed_seed_identical_results(self, small_instance):
        scenario_set, cfg = small_instance
        epso_cfg = EpsoConfig(pop_size=8, max_iters=60, target_feasible=20, seed=4)
        a = run(epso_cfg, scenario_set, cfg, dt=0.25)
        b = run(epso_cfg, scenario_set, cfg, dt=0.25)
        assert len(a.feasible) == len(b.feasible)
        for ta, tb in zip(a.feasible.trajectories, b.feasible.trajectories):
            assert np.array_equal(ta.p_bat, tb.p_bat)
            assert np.array_equal(ta.p_ewh, tb.p_ewh)
        assert a.feasible.fitnesses == b.feasible.fitnesses

    def test_impossible_instance_returns_empty_with_warning(self, small_instance):
        scenario_set, _ = small_instance
        battery = hems.BatteryConfig(
            capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=1.92
        )
        # heavy draws in a sliver of a temperature band: the tank drifts below
        # the floor within a few steps whatever the heater does, so every
        # scenario is violated and no trajectory can be collected
        cfg = HemsConfig(
            battery=battery,
            ewh=EwhConfig(
                p_nom=0.5,
                theta_min=59.9,
                theta_max=60.0,
                theta_init=60.0,
                draw_profile=np.full(16, 20.0),
            ),
        )
        epso_cfg = EpsoConfig(pop_size=6, max_iters=10, target_feasible=3, seed=5)
        result = run(epso_cfg, scenario_set, cfg, dt=0.25)
        assert len(result.feasible) == 0
        assert not result.completed
        assert result.warning is not None

    def test_log_records_progress(self, small_instance):
        scenario_set, cfg = small_instance
        records = []
        epso_cfg = EpsoConfig(pop_size=8, max_iters=50, target_feasible=10, seed=6)
        result = run(epso_cfg, scenario_set, cfg, dt=0.25, log_sink=records.append)
        assert len(records) == result.iterations + 1
        assert records[0]["iteration"] == 0
        for rec in records:
            assert {"iteration", "feasible", "best_distance", "mutation_rate"} <= set(rec)
        rates = [r["mutation_rate"] for r in records[1:]]
        assert all(x >= y - 1e-12 for x, y in zip(rates, rates[1:]))  # non-increasing


class TestTrajectoryCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(24)
        trajs = [
            FlexTrajectory(p_bat=rng.uniform(-1.5, 1.5, 6), p_ewh=np.where(rng.random(6) < 0.5, 0.5, 0.0))
            for _ in range(9)
        ]
        fits = list(rng.integers(0, 100, size=9))
        path = tmp_path / "trajs.csv"
        write_trajectories_csv(path, trajs, fits)
        back_trajs, back_fits = read_trajectories_csv(path)
        assert back_fits == [int(f) for f in fits]
        for orig, back in zip(trajs, back_trajs):
            assert np.array_equal(orig.p_bat, back.p_bat)
            assert np.array_equal(orig.p_ewh, back.p_ewh)

    def test_bytes_match_csv_writer(self, tmp_path):
        import csv

        edge = [-0.0, 5e-324, 1e-5, 1e16, -1.5e-300, 0.1 + 0.2, float("nan"), float("inf"), -float("inf")]
        rng = np.random.default_rng(25)
        trajs = [FlexTrajectory(p_bat=rng.choice(edge, 4), p_ewh=rng.normal(size=4) * 1e8) for _ in range(20)]
        fits = rng.integers(0, 100, size=20)
        write_trajectories_csv(tmp_path / "joined.csv", trajs, fits)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"pbat_h{k}" for k in range(1, 5)] + [f"pewh_h{k}" for k in range(1, 5)] + ["fitness"])
            for traj, fitness in zip(trajs, fits):
                writer.writerow([repr(x) for x in traj.p_bat.tolist() + traj.p_ewh.tolist()] + [int(fitness)])
        assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def _text(self, rows, newline="\n"):
        trajs = [FlexTrajectory(p_bat=np.array([0.5, -0.25]), p_ewh=np.array([0.0, 0.5]))] * rows
        header = "pbat_h1,pbat_h2,pewh_h1,pewh_h2,fitness"
        return newline.join([header] + ["0.5,-0.25,0.0,0.5,7"] * rows) + newline, trajs

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(self._text(0)[0])
        back, fits = read_trajectories_csv(path)
        assert back.matrix.shape == (0, 4) and fits == []

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_lines_skipped_and_line_endings_accepted(self, tmp_path, newline):
        text, trajs = self._text(3, newline)
        lines = text.split(newline)
        path = tmp_path / "gappy.csv"
        path.write_bytes(newline.join(lines[:2] + ["", ""] + lines[2:] + [""]).encode())
        back, fits = read_trajectories_csv(path)
        assert fits == [7, 7, 7]
        for orig, row in zip(trajs, back):
            assert np.array_equal(orig.as_vector(), row.as_vector())

    @pytest.mark.parametrize(
        "row", ["0.5,-0.25,0.0,7", "0.5,-0.25,0.0,0.5,1.5", "0.5,#-0.25,0.0,0.5,7", "#0.5,-0.25,0.0,0.5,7",
                "0.5,-0.25,nan,0.5,7", "0.5,-0.25,0.0,0.5,inf", "0.5,,0.0,0.5,7"],
    )
    def test_malformed_rows_rejected(self, tmp_path, row):
        text = self._text(2)[0]
        path = tmp_path / "bad.csv"
        path.write_text(text + row + "\n")
        with pytest.raises(ValueError):
            read_trajectories_csv(path)


# Cells the writer must keep apart or format exactly: both zeros, the
# smallest subnormal, the largest finite floats and whole-number floats.
_EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53]
_CELLS = st.one_of(st.sampled_from(_EDGE_CELLS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _chained_rows(draw):
    """(horizon, rows) where each row is the one before with a few cells
    edited: some rows repeat it whole, some flip the sign of a cell in place
    (0.0 to -0.0 and back), some change most cells."""
    horizon = draw(st.integers(1, 4))
    width = 2 * horizon
    row = draw(st.lists(_CELLS, min_size=width, max_size=width))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        rows.append(row)
        row = list(row)
        for _ in range(draw(st.integers(0, width))):
            k = draw(st.integers(0, width - 1))
            row[k] = -row[k] if draw(st.booleans()) else draw(_CELLS)
    return horizon, rows


def _csv_writer_bytes(path, horizon, rows, fitnesses) -> bytes:
    """The bytes of a csv writer given each value's repr, as
    `test_bytes_match_csv_writer` builds them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"pbat_h{k}" for k in range(1, horizon + 1)] + [f"pewh_h{k}" for k in range(1, horizon + 1)]
                        + ["fitness"])
        writer.writerows([repr(x) for x in row] + [fitness] for row, fitness in zip(rows, fitnesses))
    return Path(path).read_bytes()


class TestTrajectoryCsvWriter:
    """The writer formats only the cells whose bits changed since the row
    before; its bytes must still be those of formatting every cell."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chain=_chained_rows(), data=st.data())
    def test_bytes_match_joined_repr_and_round_trip(self, tmp_path, chain, data):
        horizon, rows = chain
        fits = data.draw(st.lists(st.integers(0, 10**6), min_size=len(rows), max_size=len(rows)))
        trajs = [FlexTrajectory(p_bat=row[:horizon], p_ewh=row[horizon:]) for row in rows]
        write_trajectories_csv(tmp_path / "chain.csv", trajs, fits, horizon=horizon)
        expected = _csv_writer_bytes(tmp_path / "reference.csv", horizon, rows, fits)
        assert (tmp_path / "chain.csv").read_bytes() == expected
        matrix = np.array(rows, dtype=float).reshape(len(rows), 2 * horizon)
        write_trajectories_csv(tmp_path / "set.csv", TrajectorySet(matrix), fits, horizon=horizon)
        assert (tmp_path / "set.csv").read_bytes() == expected
        back, back_fits = read_trajectories_csv(tmp_path / "chain.csv")
        assert back_fits == fits
        assert len(back) == len(rows)
        for row, traj in zip(rows, back):
            assert np.array_equal(np.array(row).view(np.int64), traj.as_vector().view(np.int64))

    def test_single_row_and_empty_list(self, tmp_path):
        row = [-0.0, 5e-324, 1.7976931348623157e308, 2.0]
        write_trajectories_csv(tmp_path / "one.csv", [FlexTrajectory(row[:2], row[2:])], [3])
        assert (tmp_path / "one.csv").read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", 2, [row], [3])
        write_trajectories_csv(tmp_path / "none.csv", [], horizon=2)
        assert (tmp_path / "none.csv").read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", 2, [], [])
        back, fits = read_trajectories_csv(tmp_path / "none.csv")
        assert back.matrix.shape == (0, 4) and fits == []

    def test_set_and_list_give_the_same_bytes(self, tmp_path):
        """A `TrajectorySet` is written from its matrix rows, here strided
        views into a wider table as the reader returns them; a list of its
        rows as `FlexTrajectory` gives the same file. A set holds finite rows
        only, while a list of offers may also hold NaN and ±inf."""
        rng = np.random.default_rng(8)
        edge = [0.0, -0.0, 5e-324, -1.5e-300, 0.1 + 0.2, 1e16]
        table = rng.choice(edge, size=(12, 9))
        table[::3] = table[1::3]
        rows = TrajectorySet(table[:, :-1])
        assert not rows.matrix.flags.c_contiguous
        fits = list(range(12))
        write_trajectories_csv(tmp_path / "set.csv", rows, fits)
        write_trajectories_csv(tmp_path / "list.csv", [FlexTrajectory(r[:4], r[4:]) for r in table[:, :-1]], fits)
        assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
        expected = _csv_writer_bytes(tmp_path / "reference.csv", 4, table[:, :-1].tolist(), fits)
        assert (tmp_path / "set.csv").read_bytes() == expected
        special = table[:, :-1].copy()
        special[::4, 1] = [float("nan"), float("inf"), -float("inf")]
        write_trajectories_csv(tmp_path / "special.csv", [FlexTrajectory(r[:4], r[4:]) for r in special], fits)
        expected = _csv_writer_bytes(tmp_path / "special_reference.csv", 4, special.tolist(), fits)
        assert (tmp_path / "special.csv").read_bytes() == expected
        with pytest.raises(ValueError, match="^matrix: row 1 holds a non-finite value$"):
            TrajectorySet(special)
        with pytest.raises(ValueError, match="trajectory 0 has horizon 4, the header 3"):
            write_trajectories_csv(tmp_path / "bad.csv", rows, fits, horizon=3)
        assert not (tmp_path / "bad.csv").exists()
        write_trajectories_csv(tmp_path / "none.csv", TrajectorySet(np.empty((0, 4))), horizon=2)
        assert (tmp_path / "none.csv").read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", 2, [], [])

    def test_memory_stays_one_row(self, tmp_path):
        # 2000 x 192 distinct cells: a memo of the file's distinct values would
        # hold 384k floats (3 MB) before any of their strings; the writer
        # keeps one row of cells.
        rng = np.random.default_rng(7)
        matrix = rng.integers(-(10**9), 10**9, size=(2000, 192)) / 1024
        trajs = [FlexTrajectory(p_bat=r[:96], p_ewh=r[96:]) for r in matrix]
        fits = [5] * len(trajs)
        tracemalloc.start()
        try:
            write_trajectories_csv(tmp_path / "big.csv", trajs, fits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        back, _ = read_trajectories_csv(tmp_path / "big.csv")
        assert np.array_equal(back.matrix, matrix)

    @pytest.mark.parametrize(
        "trajs, fits, horizon, message",
        [
            ([FlexTrajectory([0.5], [0.0])] * 3, [1, 2], None, "3 trajectories but 2 fitnesses"),
            ([FlexTrajectory([0.5], [0.0]), FlexTrajectory([0.5, 0.1], [0.0, 0.5])], None, None,
             "trajectory 1 has horizon 2, the header 1"),
            ([FlexTrajectory([0.5], [0.0])], [95.7], None, "fitness 95.7 of trajectory 0 is not a whole number"),
            ([FlexTrajectory([0.5], [0.0])], [float("nan")], None, "fitness nan of trajectory 0"),
            ([FlexTrajectory([0.5], [0.0])], None, 3, "trajectory 0 has horizon 1, the header 3"),
        ],
    )
    def test_mismatched_input_rejected_before_writing(self, tmp_path, trajs, fits, horizon, message):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=message):
            write_trajectories_csv(path, trajs, fits, horizon=horizon)
        assert not path.exists()

    def test_whole_float_and_numpy_fitnesses_accepted(self, tmp_path):
        trajs = [FlexTrajectory([0.5], [0.0])] * 3
        write_trajectories_csv(tmp_path / "ok.csv", trajs, [95.0, np.int64(7), np.float64(2.0)])
        assert read_trajectories_csv(tmp_path / "ok.csv")[1] == [95, 7, 2]


class TestTrajectoryCsvHeader:
    @pytest.mark.parametrize(
        "header",
        ["pbat_h1,pewh_h1,pbat_h2,pewh_h2,fitness", "pbat_h1,foo,fitness", "pbat_h2,pbat_h1,pewh_h1,pewh_h2,fitness",
         "pbat_h1,pbat_h2,pewh_h1,pewh_h2,fit", "pbat_h1,pewh_h1", "fitness", ""],
    )
    def test_header_must_be_the_written_one(self, tmp_path, header):
        # Columns in another order would be classified on the wrong numbers.
        path = tmp_path / "offers.csv"
        path.write_text(header + "\n" + ",".join(["0.5"] * len(header.split(","))) + "\n")
        with pytest.raises(ValueError, match="offers.csv: expected the trajectory header"):
            read_trajectories_csv(path)

    def test_whole_float_fitness_is_read_as_an_integer(self, tmp_path):
        path = tmp_path / "offers.csv"
        path.write_text("pbat_h1,pewh_h1,fitness\n0.5,0.0,7.0\n")
        assert read_trajectories_csv(path)[1] == [7]

    @pytest.mark.parametrize("fitness", ["1e300", "-1e300", "1e17"])
    def test_fitness_beyond_exact_integers_rejected(self, tmp_path, fitness):
        # Cast to int, 1e300 would wrap to a garbage count with a warning.
        path = tmp_path / "offers.csv"
        path.write_text(f"pbat_h1,pewh_h1,fitness\n0.5,0.0,{fitness}\n")
        with pytest.raises(ValueError, match="row 1 has a fitness that is not an integer"):
            read_trajectories_csv(path)


def _spans():
    """perfbench/spans.py as it stands, loaded without putting perfbench on the path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestTracedNames:
    # perfbench/check.py requires each of these spans to be recorded at
    # least once by its workloads; a refactor that calls around one of them
    # would zero a gated metric.
    GATED = (
        "svdd.classify", "svdd.radius_squared", "svdd.kernel_matrix", "svdd.train", "epso.read_trajectories_csv",
        "epso.write_trajectories_csv", "analysis.confusion_table", "analysis.pca_diversity",
        "analysis.generate_infeasible_set", "analysis.semi_random_baseline", "hems.feasible_power_range",
    )

    def test_every_trace_target_resolves(self):
        # perfbench/spans.py wraps each target with getattr, so a renamed or
        # removed function would crash a traced benchmark run.
        spans = _spans()
        assert spans.TARGETS
        for module_name, attribute, *_ in spans.TARGETS:
            target = importlib.import_module(f"hemsflex.{module_name}")
            for part in attribute.split("."):
                target = getattr(target, part)
            assert callable(target), (module_name, attribute)

    def test_small_train_classify_and_validate_record_every_gated_span(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        out = tmp_path / "out"
        shutil.copytree(repo / "out" / "small", out)
        modules = {"hemsflex": hemsflex, "analysis": analysis, "cli": cli, "epso": epso, "hems": hems,
                   "scenarios": scenarios, "svdd": svdd}
        tracer = _spans().Tracer()
        tracer.install(modules)
        try:
            args = ["--config", str(repo / "data" / "config_small.json"), "--out", str(out)]
            classify = ["classify", "--model", str(out / "model.json"), "--input", str(out / "feasible.csv")]
            for stage in (["train"], classify, ["validate"]):
                assert cli.main(args + stage) == 0, stage
        finally:
            tracer.uninstall()
        recorded = {span[0] for span in tracer.spans}
        assert sorted(set(self.GATED) - recorded) == []
        assert epso.read_trajectories_csv is read_trajectories_csv
