"""Swarm-search checks: weight mutation, attractor perturbation, the movement
rule, fitness evaluation, robustness predicate, diversity-driven global best,
tournament selection, seeding, and full runs on easy and impossible instances."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hemsflex import analysis, epso, hems
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
from hemsflex.hems import EwhConfig, FlexTrajectory, HemsConfig


def make_swarm(x_bat, x_ewh, weights=None, fitness=-1):
    """Swarm at rest with one row per row of x_bat / x_ewh (a 1-D position
    is one row); every row shares `weights` and `fitness`."""
    x_bat = np.atleast_2d(np.asarray(x_bat, dtype=float))
    x_ewh = np.atleast_2d(np.asarray(x_ewh, dtype=float))
    size = x_bat.shape[0]
    if weights is None:
        weights = np.full((2, 3), 0.5)
    return Swarm(
        x_bat=x_bat,
        x_ewh=x_ewh,
        v_bat=np.zeros_like(x_bat),
        v_ewh=np.zeros_like(x_ewh),
        weights=np.tile(np.asarray(weights, dtype=float), (size, 1, 1)),
        best_x_bat=x_bat.copy(),
        best_x_ewh=x_ewh.copy(),
        best_fitness=np.full(size, -1),
        fitness=np.full(size, fitness),
    )


def move(swarm, b_g_star, hems_cfg, rng):
    """move_particle with every row attracted to b_g_star, each row's two
    communication masks drawn from `rng` in row order as the search does."""
    masks = rng.random((len(swarm), 2, swarm.x_bat.shape[1])) < epso.COMM_FACTOR
    star_bat = np.broadcast_to(b_g_star.p_bat, swarm.x_bat.shape)
    star_ewh = np.broadcast_to(b_g_star.p_ewh, swarm.x_ewh.shape)
    return move_particle(swarm, star_bat, star_ewh, masks[:, 0], masks[:, 1], hems_cfg)


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
        b_bat, b_ewh = np.array([0.1, 0.2]), np.array([0.5, 0.0])
        bat, ewh = perturb_global_best(b_bat, b_ewh, 0.0, np.random.default_rng(6))
        assert np.array_equal(bat, b_bat)
        assert np.array_equal(ewh, b_ewh)

    def test_mean_of_perturbations_recovers_center(self):
        b_bat, b_ewh = np.array([0.3]), np.array([0.5])
        tau_prime = 1.0
        n = 10_000
        rng = np.random.default_rng(7)
        bats = np.array([perturb_global_best(b_bat, b_ewh, tau_prime, rng)[0][0] for _ in range(n)])
        assert abs(bats.mean() - 0.3) < 3.0 * tau_prime / np.sqrt(n)

    def test_coordinates_perturbed_independently(self):
        bat, ewh = perturb_global_best(np.zeros(4), np.zeros(4), 1.0, np.random.default_rng(8))
        assert len(np.unique(bat)) == 4
        assert len(np.unique(ewh)) == 4


class TestMoveParticle:
    @pytest.fixture
    def hems_cfg(self, hems_reference):
        return hems_reference

    def test_fixed_point_when_everything_coincides(self, hems_cfg):
        x = make_swarm([0.2, -0.1], [0.5, 0.0])
        bg = FlexTrajectory(p_bat=x.x_bat[0].copy(), p_ewh=x.x_ewh[0].copy())
        out = move(x, bg, hems_cfg, np.random.default_rng(9))
        assert np.allclose(out.x_bat, x.x_bat)
        assert np.array_equal(out.x_ewh, x.x_ewh)

    def test_pure_inertia_reduction(self, hems_cfg):
        p = make_swarm([0.0, 0.0], [0.0, 0.0], weights=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p.v_bat = np.array([[0.3, -0.2]])
        bg = FlexTrajectory(p_bat=np.zeros(2), p_ewh=np.zeros(2))
        out = move(p, bg, hems_cfg, np.random.default_rng(10))
        assert np.allclose(out.x_bat[0], [0.3, -0.2])

    def test_ewh_quantized_to_nearest_level(self, hems_cfg):
        p = make_swarm([0.0], [0.0], weights=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p.v_ewh = np.array([[0.26]])
        bg = FlexTrajectory(p_bat=np.zeros(1), p_ewh=np.zeros(1))
        out = move(p, bg, hems_cfg, np.random.default_rng(11))
        assert out.x_ewh[0, 0] == 0.5
        p.v_ewh = np.array([[0.24]])
        out = move(p, bg, hems_cfg, np.random.default_rng(11))
        assert out.x_ewh[0, 0] == 0.0

    def test_battery_clamped_to_power_band(self, hems_cfg):
        rng = np.random.default_rng(12)
        p = make_swarm(np.full(8, 1.4), np.zeros(8))
        p.v_bat = np.full((1, 8), 5.0)
        bg = FlexTrajectory(p_bat=np.full(8, 10.0), p_ewh=np.zeros(8))
        out = move(p, bg, hems_cfg, rng)
        assert np.all(out.x_bat <= hems_cfg.battery.p_charge_max)
        assert np.all(out.x_bat >= -hems_cfg.battery.p_discharge_max)

    def test_rows_move_as_the_per_particle_rule(self, hems_cfg):
        bat_cfg, p_nom = hems_cfg.battery, hems_cfg.ewh.p_nom
        rng = np.random.default_rng(13)
        size, horizon = 6, 10
        x_ewh = np.where(rng.random((size, horizon)) < 0.5, p_nom, 0.0)
        swarm = make_swarm(rng.uniform(-1.5, 1.5, (size, horizon)), x_ewh)
        swarm.v_bat = rng.uniform(-0.3, 0.3, (size, horizon))
        swarm.v_ewh = rng.uniform(-0.5, 0.5, (size, horizon))
        swarm.weights = rng.uniform(0.0, 2.0, (size, 2, 3))
        swarm.best_x_bat = rng.uniform(-1.5, 1.5, (size, horizon))
        swarm.best_x_ewh = np.where(rng.random((size, horizon)) < 0.5, p_nom, 0.0)
        star_bat = rng.uniform(-1.5, 1.5, (size, horizon))
        star_ewh = rng.uniform(-0.5, 1.0, (size, horizon))
        mask_bat, mask_ewh = rng.random((2, size, horizon)) < 0.5
        out = move_particle(swarm, star_bat, star_ewh, mask_bat, mask_ewh, hems_cfg)
        bat_vmax = epso.VELOCITY_CLAMP_FRAC * (bat_cfg.p_charge_max + bat_cfg.p_discharge_max)
        for i in range(size):
            # the movement rule written out for one particle with scalar weights
            w = swarm.weights[i]
            x_bat, x_ewh = swarm.x_bat[i], swarm.x_ewh[i]
            v_bat = (
                w[0, 0] * swarm.v_bat[i]
                + w[0, 1] * (swarm.best_x_bat[i] - x_bat)
                + w[0, 2] * mask_bat[i] * (star_bat[i] - x_bat)
            )
            v_ewh = (
                w[1, 0] * swarm.v_ewh[i]
                + w[1, 1] * (swarm.best_x_ewh[i] - x_ewh)
                + w[1, 2] * mask_ewh[i] * (star_ewh[i] - x_ewh)
            )
            v_bat = np.clip(v_bat, -bat_vmax, bat_vmax)
            v_ewh = np.clip(v_ewh, -p_nom, p_nom)
            assert np.array_equal(out.v_bat[i], v_bat)
            assert np.array_equal(out.v_ewh[i], v_ewh)
            assert np.array_equal(
                out.x_bat[i], np.clip(x_bat + v_bat, -bat_cfg.p_discharge_max, bat_cfg.p_charge_max)
            )
            assert np.array_equal(out.x_ewh[i], np.where(x_ewh + v_ewh >= 0.5 * p_nom, p_nom, 0.0))
        for name in ("weights", "best_x_bat", "best_x_ewh", "best_fitness"):
            assert np.array_equal(getattr(out, name), getattr(swarm, name)), name


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
        traj = FlexTrajectory(p_bat=np.full(4, 0.2), p_ewh=np.zeros(4))
        fs.add(traj, 10)
        best = select_global_best(fs)
        assert np.array_equal(best.p_bat, traj.p_bat) and np.array_equal(best.p_ewh, traj.p_ewh)

    def test_symmetric_pair_ties_to_first(self):
        fs = FeasibleSet(horizon=4)
        first = FlexTrajectory(p_bat=np.zeros(4), p_ewh=np.zeros(4))
        fs.add(first, 10)
        fs.add(FlexTrajectory(p_bat=np.ones(4), p_ewh=np.full(4, 0.5)), 10)
        distances = fs.distances()
        assert distances[0] == pytest.approx(distances[1], abs=1e-12)
        # hand evaluation: per step |0-0.5| + |0-0.25| = 0.75, times 4 steps
        assert distances[0] == pytest.approx(3.0, abs=1e-12)
        best = select_global_best(fs)
        assert np.array_equal(best.p_bat, first.p_bat) and np.array_equal(best.p_ewh, first.p_ewh)

    def test_outlier_member_wins(self):
        fs = FeasibleSet(horizon=2)
        for v in (0.0, 0.1, 0.2):
            fs.add(FlexTrajectory(p_bat=np.full(2, v), p_ewh=np.zeros(2)), 5)
        fs.add(FlexTrajectory(p_bat=np.full(2, 1.5), p_ewh=np.full(2, 0.5)), 5)
        best = select_global_best(fs)
        assert np.all(best.p_bat == 1.5)

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            select_global_best(FeasibleSet(horizon=3))


class TestFeasibleSet:
    def test_deduplicates_close_trajectories(self):
        fs = FeasibleSet(horizon=3)
        a = FlexTrajectory(p_bat=np.array([0.1, 0.2, 0.3]), p_ewh=np.zeros(3))
        b = FlexTrajectory(p_bat=np.array([0.1, 0.2, 0.3 + 1e-8]), p_ewh=np.zeros(3))
        c = FlexTrajectory(p_bat=np.array([0.1, 0.2, 0.4]), p_ewh=np.zeros(3))
        assert fs.add(a, 10)
        assert not fs.add(b, 10)
        assert fs.add(c, 10)
        assert len(fs) == 2

    def test_running_mean_matches_batch_mean(self):
        rng = np.random.default_rng(15)
        fs = FeasibleSet(horizon=5)
        trajs = [
            FlexTrajectory(p_bat=rng.uniform(-1, 1, 5), p_ewh=np.where(rng.random(5) < 0.5, 0.5, 0.0))
            for _ in range(40)
        ]
        for t in trajs:
            fs.add(t, 1)
        assert np.allclose(fs.mean[:5], np.mean([t.p_bat for t in fs.trajectories], axis=0))
        assert np.allclose(fs.mean[5:], np.mean([t.p_ewh for t in fs.trajectories], axis=0))

    def test_growth_keeps_members_and_distances(self):
        rng = np.random.default_rng(25)
        horizon = 3
        fs = FeasibleSet(horizon=horizon)
        rows = rng.uniform(-1, 1, (200, 2 * horizon))
        early = []
        for k, row in enumerate(rows):
            assert fs.add(FlexTrajectory(p_bat=row[:horizon], p_ewh=row[horizon:]), k)
            if k in (0, 63, 127):
                early.append((k, fs[k]))  # read just before the matrix grows
        assert len(fs) == 200 and fs.fitnesses == list(range(200))
        for k, member in early:
            assert np.array_equal(member.as_vector(), rows[k])
        assert np.array_equal(fs.matrix, rows)
        expected = np.abs(rows[:, :horizon] - fs.mean[:horizon]).sum(axis=1) + np.abs(
            rows[:, horizon:] - fs.mean[horizon:]
        ).sum(axis=1)
        assert np.array_equal(fs.distances(), expected)
        near = rows[0] + 0.5e-6
        assert not fs.add(FlexTrajectory(p_bat=near[:horizon], p_ewh=near[horizon:]), 1)
        assert len(fs) == 200

    def test_distances_computed_once_per_state(self):
        fs = FeasibleSet(horizon=2)
        fs.add(FlexTrajectory(p_bat=np.array([0.5, 0.0]), p_ewh=np.zeros(2)), 1)
        first = fs.distances()
        assert fs.distances() is first and not first.flags.writeable
        fs.add(FlexTrajectory(p_bat=np.array([-0.5, 0.0]), p_ewh=np.zeros(2)), 1)
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
        fs.add(FlexTrajectory(p_bat=np.zeros(2), p_ewh=np.zeros(2)), 1)
        with pytest.raises(ValueError):
            fs[0].p_bat[0] = 1.0
        with pytest.raises(ValueError):
            fs.trajectories[0].p_ewh[1] = 0.5


class TestStochasticTournament:
    # Each pair draws one uniform, in row order, so a swarm of n pairs sees
    # the same draws as n one-pair tournaments in a row.
    def test_equal_fitness_is_fair_coin(self):
        rng = np.random.default_rng(16)
        n = 10_000
        par = make_swarm(np.zeros((n, 1)), np.zeros((n, 1)), fitness=5)
        off = make_swarm(np.ones((n, 1)), np.zeros((n, 1)), fitness=5)
        survivors = stochastic_tournament(par, off, rng, 0.8)
        wins = np.count_nonzero(survivors.x_bat[:, 0] == off.x_bat[:, 0])
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
        wins = np.count_nonzero(survivors.x_bat[:, 0] == par.x_bat[:, 0])
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
            swarm.v_bat, swarm.v_ewh = np.full((n, 2), value), np.full((n, 2), 2 * value)
            swarm.best_x_bat, swarm.best_x_ewh = np.full((n, 2), 3 * value), np.full((n, 2), 4 * value)
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
        for x_bat, x_ewh in zip(pop.x_bat, pop.x_ewh):
            assert np.all(x_bat <= hems_reference.battery.p_charge_max)
            assert np.all(x_bat >= -hems_reference.battery.p_discharge_max)
            assert set(np.unique(x_ewh)) <= {0.0, hems_reference.ewh.p_nom}

    def test_zeroed_fraction_has_zero_battery_on_surplus_steps(self, hems_reference):
        cfg = EpsoConfig(pop_size=20, seed=1)
        scenario0 = np.linspace(0.5, -0.5, 12)
        surplus_steps = scenario0 < 0
        pop = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(21))
        for x_bat in pop.x_bat[: round(cfg.pop_size * epso.SEED_ZERO_FRACTION)]:
            assert np.all(x_bat[surplus_steps] == 0.0)

    def test_fixed_seed_identical(self, hems_reference):
        cfg = EpsoConfig(pop_size=5, seed=1)
        scenario0 = np.linspace(0.5, -0.5, 6)
        a = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(22))
        b = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(22))
        for i in range(len(a)):
            assert np.array_equal(a.x_bat[i], b.x_bat[i])
            assert np.array_equal(a.x_ewh[i], b.x_ewh[i])
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
        assert read_trajectories_csv(path) == ([], [])

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


class TestTracedNames:
    def test_every_trace_target_resolves(self):
        # perfbench/spans.py wraps each target with getattr, so a renamed or
        # removed function would crash a traced benchmark run.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.TARGETS
        for module_name, attribute, *_ in spans.TARGETS:
            target = importlib.import_module(f"hemsflex.{module_name}")
            for part in attribute.split("."):
                target = getattr(target, part)
            assert callable(target), (module_name, attribute)
