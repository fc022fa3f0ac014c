"""Swarm-search checks: weight mutation, attractor perturbation, the movement
rule, fitness evaluation, robustness predicate, diversity-driven global best,
tournament selection, seeding, and full runs on easy and impossible instances."""

import numpy as np
import pytest

from hemsflex import analysis, hems
from hemsflex.epso import (
    EpsoConfig,
    FeasibleSet,
    Particle,
    evaluate_fitness,
    is_robust,
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


def make_particle(x_bat, x_ewh, weights=None, fitness=-1):
    x_bat = np.asarray(x_bat, dtype=float)
    x_ewh = np.asarray(x_ewh, dtype=float)
    if weights is None:
        weights = np.full((2, 3), 0.5)
    p = Particle(
        x_bat=x_bat,
        x_ewh=x_ewh,
        v_bat=np.zeros_like(x_bat),
        v_ewh=np.zeros_like(x_ewh),
        weights=np.asarray(weights, dtype=float),
        best_x_bat=x_bat.copy(),
        best_x_ewh=x_ewh.copy(),
    )
    p.fitness = fitness
    return p


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
        tau = 5.0
        draws = np.array(
            [mutate_weights(np.ones((1, 1)), tau, rng, clip=False)[0, 0] for _ in range(10_000)]
        )
        assert np.std(draws) == pytest.approx(tau, rel=0.05)

    def test_clipped_into_weight_bounds(self):
        rng = np.random.default_rng(4)
        out = mutate_weights(np.ones((2, 3)), 5.0, rng)
        assert np.all(out >= 0.0) and np.all(out <= 2.0)

    def test_smaller_tau_moves_weights_less(self):
        w = np.full((2, 3), 1.0)
        big = mutate_weights(w, 5.0, np.random.default_rng(5), clip=False)
        small = mutate_weights(w, 0.5, np.random.default_rng(5), clip=False)
        assert np.all(np.abs(small - w) < np.abs(big - w))


class TestPerturbGlobalBest:
    def test_zero_tau_prime_is_identity(self):
        b = FlexTrajectory(p_bat=np.array([0.1, 0.2]), p_ewh=np.array([0.5, 0.0]))
        out = perturb_global_best(b, 0.0, np.random.default_rng(6))
        assert np.array_equal(out.p_bat, b.p_bat)
        assert np.array_equal(out.p_ewh, b.p_ewh)

    def test_mean_of_perturbations_recovers_center(self):
        b = FlexTrajectory(p_bat=np.array([0.3]), p_ewh=np.array([0.5]))
        tau_prime = 1.0
        n = 10_000
        rng = np.random.default_rng(7)
        bats = np.array([perturb_global_best(b, tau_prime, rng).p_bat[0] for _ in range(n)])
        assert abs(bats.mean() - 0.3) < 3.0 * tau_prime / np.sqrt(n)

    def test_coordinates_perturbed_independently(self):
        b = FlexTrajectory(p_bat=np.zeros(4), p_ewh=np.zeros(4))
        out = perturb_global_best(b, 1.0, np.random.default_rng(8))
        assert len(np.unique(out.p_bat)) == 4
        assert len(np.unique(out.p_ewh)) == 4


class TestMoveParticle:
    @pytest.fixture
    def cfgs(self, hems_reference):
        return EpsoConfig(seed=0), hems_reference

    def test_fixed_point_when_everything_coincides(self, cfgs):
        epso_cfg, hems_cfg = cfgs
        x = make_particle([0.2, -0.1], [0.5, 0.0])
        bg = FlexTrajectory(p_bat=x.x_bat.copy(), p_ewh=x.x_ewh.copy())
        out = move_particle(x, bg, epso_cfg, hems_cfg, np.random.default_rng(9))
        assert np.allclose(out.x_bat, x.x_bat)
        assert np.array_equal(out.x_ewh, x.x_ewh)

    def test_pure_inertia_reduction(self, cfgs):
        epso_cfg, hems_cfg = cfgs
        p = make_particle([0.0, 0.0], [0.0, 0.0], weights=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p.v_bat = np.array([0.3, -0.2])
        bg = FlexTrajectory(p_bat=np.zeros(2), p_ewh=np.zeros(2))
        out = move_particle(p, bg, epso_cfg, hems_cfg, np.random.default_rng(10))
        assert np.allclose(out.x_bat, [0.3, -0.2])

    def test_ewh_quantized_to_nearest_level(self, cfgs):
        epso_cfg, hems_cfg = cfgs
        p = make_particle([0.0], [0.0], weights=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p.v_ewh = np.array([0.26])
        bg = FlexTrajectory(p_bat=np.zeros(1), p_ewh=np.zeros(1))
        out = move_particle(p, bg, epso_cfg, hems_cfg, np.random.default_rng(11))
        assert out.x_ewh[0] == 0.5
        p.v_ewh = np.array([0.24])
        out = move_particle(p, bg, epso_cfg, hems_cfg, np.random.default_rng(11))
        assert out.x_ewh[0] == 0.0

    def test_battery_clamped_to_power_band(self, cfgs):
        epso_cfg, hems_cfg = cfgs
        rng = np.random.default_rng(12)
        p = make_particle(np.full(8, 1.4), np.zeros(8))
        p.v_bat = np.full(8, 5.0)
        bg = FlexTrajectory(p_bat=np.full(8, 10.0), p_ewh=np.zeros(8))
        out = move_particle(p, bg, epso_cfg, hems_cfg, rng)
        assert np.all(out.x_bat <= hems_cfg.battery.p_charge_max)
        assert np.all(out.x_bat >= -hems_cfg.battery.p_discharge_max)


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
        assert is_robust(90, 100, 0.9)

    def test_eighty_nine_is_not(self):
        assert not is_robust(89, 100, 0.9)

    def test_tau_one_requires_all(self):
        assert is_robust(100, 100, 1.0)
        assert not is_robust(99, 100, 1.0)

    def test_full_fitness_is_robust_for_any_tau(self):
        for tau in (0.1, 0.5, 0.9, 0.99, 1.0):
            assert is_robust(100, 100, tau)

    def test_threshold_handles_float_products(self):
        # 0.9 * 100 overshoots 90 in floats; the threshold must stay at 90
        assert robust_threshold(100, 0.9) == 90
        assert robust_threshold(100, 0.905) == 91
        assert robust_threshold(20, 0.9) == 18

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(14)
        fits = rng.integers(0, 101, size=200)
        taus = [0.5, 0.7, 0.9, 0.95, 1.0]
        accepted = [set(np.flatnonzero([is_robust(f, 100, t) for f in fits])) for t in taus]
        for small, large in zip(accepted[1:], accepted[:-1]):
            assert small <= large


class TestSelectGlobalBest:
    def test_singleton_returns_member(self):
        fs = FeasibleSet(horizon=4)
        traj = FlexTrajectory(p_bat=np.full(4, 0.2), p_ewh=np.zeros(4))
        fs.add(traj, 10)
        assert select_global_best(fs) is fs.trajectories[0]

    def test_symmetric_pair_ties_to_first(self):
        fs = FeasibleSet(horizon=4)
        fs.add(FlexTrajectory(p_bat=np.zeros(4), p_ewh=np.zeros(4)), 10)
        fs.add(FlexTrajectory(p_bat=np.ones(4), p_ewh=np.full(4, 0.5)), 10)
        distances = fs.distances()
        assert distances[0] == pytest.approx(distances[1], abs=1e-12)
        # hand evaluation: per step |0-0.5| + |0-0.25| = 0.75, times 4 steps
        assert distances[0] == pytest.approx(3.0, abs=1e-12)
        assert select_global_best(fs) is fs.trajectories[0]

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
        assert np.allclose(fs.mean_bat, np.mean([t.p_bat for t in fs.trajectories], axis=0))
        assert np.allclose(fs.mean_ewh, np.mean([t.p_ewh for t in fs.trajectories], axis=0))


class TestStochasticTournament:
    def test_equal_fitness_is_fair_coin(self):
        rng = np.random.default_rng(16)
        wins = 0
        n = 10_000
        for _ in range(n):
            par = make_particle([0.0], [0.0], fitness=5)
            off = make_particle([1.0], [0.0], fitness=5)
            survivor = stochastic_tournament([par], [off], rng)[0]
            wins += survivor is off
        assert wins / n == pytest.approx(0.5, abs=0.02)

    def test_win_probability_one_is_elitist(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            par = make_particle([0.0], [0.0], fitness=100)
            off = make_particle([1.0], [0.0], fitness=50)
            assert stochastic_tournament([par], [off], rng, win_prob=1.0)[0] is par

    def test_better_survives_about_eighty_percent(self):
        rng = np.random.default_rng(18)
        wins = 0
        n = 10_000
        for _ in range(n):
            par = make_particle([0.0], [0.0], fitness=100)
            off = make_particle([1.0], [0.0], fitness=50)
            wins += stochastic_tournament([par], [off], rng)[0] is par
        assert wins / n == pytest.approx(0.8, abs=0.015)

    def test_population_size_preserved(self):
        rng = np.random.default_rng(19)
        parents = [make_particle([0.0], [0.0], fitness=i) for i in range(7)]
        offspring = [make_particle([1.0], [0.0], fitness=7 - i) for i in range(7)]
        assert len(stochastic_tournament(parents, offspring, rng)) == 7


class TestSeedInitialPopulation:
    def test_respects_power_bounds(self, hems_reference):
        cfg = EpsoConfig(pop_size=20, seed=1)
        scenario0 = np.linspace(0.5, -0.5, 12)
        pop = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(20))
        for p in pop:
            assert np.all(p.x_bat <= hems_reference.battery.p_charge_max)
            assert np.all(p.x_bat >= -hems_reference.battery.p_discharge_max)
            assert set(np.unique(p.x_ewh)) <= {0.0, hems_reference.ewh.p_nom}

    def test_zeroed_fraction_has_zero_battery_on_surplus_steps(self, hems_reference):
        cfg = EpsoConfig(pop_size=20, seed_zero_fraction=0.5, seed=1)
        scenario0 = np.linspace(0.5, -0.5, 12)
        surplus_steps = scenario0 < 0
        pop = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(21))
        zeroed = [p for p in pop[:10]]
        for p in zeroed:
            assert np.all(p.x_bat[surplus_steps] == 0.0)

    def test_fixed_seed_identical(self, hems_reference):
        cfg = EpsoConfig(pop_size=5, seed=1)
        scenario0 = np.linspace(0.5, -0.5, 6)
        a = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(22))
        b = seed_initial_population(scenario0, cfg, hems_reference, np.random.default_rng(22))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.x_bat, pb.x_bat)
            assert np.array_equal(pa.x_ewh, pb.x_ewh)
            assert np.array_equal(pa.weights, pb.weights)


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
        assert records == result.log
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
