"""Validation-tooling checks: oracle agreement with the search-side
evaluator, infeasible-set sampling, PCA component counts, confusion
bookkeeping, and the semi-random baseline builder."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hemsflex import analysis, epso, hems, svdd
from hemsflex.analysis import (
    confusion_table,
    generate_infeasible_set,
    oracle_check,
    pca_diversity,
    semi_random_baseline,
)
from hemsflex.hems import EwhConfig, FlexTrajectory, HemsConfig
from hemsflex.scenarios import ScenarioSet
from tests.conftest import stacked
from tests.test_lane_kernel import CAPACITY, EPS, KNEE, P_MAX, P_NOM, lane_instances


class TestOracleCheck:
    def test_worked_discharge_example_fails_every_scenario(self, battery_simple, small_instance):
        scenario_set, _ = small_instance
        ewh = EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0)
        cfg = HemsConfig(battery=battery_simple, ewh=ewh)
        traj = FlexTrajectory(
            p_bat=np.concatenate([[0.0, -0.5, 0.0], np.zeros(13)]), p_ewh=np.zeros(16)
        )
        # the SoC floor breaks at the second step regardless of the scenario
        assert oracle_check(traj, scenario_set, cfg, dt=1.0) == 0

    def test_idle_trajectory_compliant_everywhere(self, small_instance):
        scenario_set, cfg = small_instance
        zero = FlexTrajectory(p_bat=np.zeros(16), p_ewh=np.zeros(16))
        assert oracle_check(zero, scenario_set, cfg, dt=0.25) == scenario_set.count

    def test_horizon_mismatch_rejected(self, small_instance):
        # A trajectory shorter than the scenarios must not be judged on the
        # scenarios' first steps only.
        scenario_set, cfg = small_instance
        short = FlexTrajectory(p_bat=np.zeros(8), p_ewh=np.zeros(8))
        with pytest.raises(ValueError, match="8 battery and 8 heater steps, the scenarios 16"):
            oracle_check(short, scenario_set, cfg, 0.25)
        oracle = analysis._oracle(cfg, scenario_set, 0.25)
        with pytest.raises(ValueError, match="16 battery and 17 heater steps"):
            oracle([0.0] * 16, [0.0] * 17)
        with pytest.raises(ValueError, match="17 battery and 16 heater steps"):
            oracle([0.0] * 17, [0.0] * 16)

    def test_exact_agreement_with_search_evaluator(self, small_instance):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(41)
        for _ in range(1000):
            traj = FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, 16),
                p_ewh=np.where(rng.random(16) < rng.uniform(0, 0.6), 0.5, 0.0),
            )
            assert oracle_check(traj, scenario_set, cfg, 0.25) == epso.evaluate_fitness(
                traj, scenario_set, cfg, 0.25
            )


def _per_draw_sample(count, cfg, scenario_set, seed, dt, tau_scen):
    """The infeasible sample as the oracle labels it, one draw at a time:
    the kept rows and the draws made, or the sampler's ValueError."""
    bat, horizon = cfg.battery, scenario_set.horizon
    threshold = epso.robust_threshold(scenario_set.count, tau_scen)
    rng = np.random.default_rng(seed)
    rows, attempts = [], 0
    while len(rows) < count:
        if attempts == 200 * count:
            raise ValueError(
                f"only {len(rows)} of {count} non-robust trajectories found in "
                f"{attempts} draws; the instance is too permissive"
            )
        attempts += 1
        traj = FlexTrajectory(
            p_bat=rng.uniform(-bat.p_discharge_max, bat.p_charge_max, horizon),
            p_ewh=np.where(rng.random(horizon) < 0.5, cfg.ewh.p_nom, 0.0),
        )
        if oracle_check(traj, scenario_set, cfg, dt) < threshold:
            rows.append(traj.as_vector())
    return np.array(rows), attempts


def _low_battery(soc_init):
    """A 4 MWh battery that starts `soc_init` kWh above an empty floor, with
    a tank band no schedule leaves: a draw is robust unless it empties the
    battery, or discharges while surplus should be absorbed."""
    battery = hems.BatteryConfig(
        capacity=4000.0, p_charge_max=1.5, p_discharge_max=1.5, soc_init=soc_init, soc_min_frac=0.0
    )
    ewh = EwhConfig(p_nom=0.5, theta_min=5.0, theta_max=200.0, theta_init=60.0, draw_profile=np.full(16, 1.0))
    return HemsConfig(battery=battery, ewh=ewh)


class TestGenerateInfeasibleSet:
    @pytest.mark.parametrize(
        "instance, count, seed",
        [
            # more members than one block holds
            ("small", 300, 5),
            # surplus-free rows: 5 members in 753 draws, in blocks of 1 to 5
            ("low battery", 5, 0),
            # surplus in one step of one row: 30 members in 124 draws, and
            # the rows whose head passed step a tail
            ("low battery, surplus", 30, 6),
        ],
    )
    def test_blocks_keep_the_per_draw_oracle_sample(self, small_instance, instance, count, seed):
        if instance == "small":
            scenario_set, cfg = small_instance
        else:
            rows = np.full((5, 16), 0.4)
            if instance.endswith("surplus"):
                rows += np.random.default_rng(7).normal(0.0, 0.2, rows.shape)
            scenario_set, cfg = ScenarioSet(rows), _low_battery(2.5)
        expected, attempts = _per_draw_sample(count, cfg, scenario_set, seed, 0.25, 0.9)
        sample = generate_infeasible_set(count, cfg, scenario_set, seed=seed, dt=0.25, tau_scen=0.9)
        assert sample.trajectories.matrix.tobytes() == expected.tobytes()
        assert sample.attempts == attempts > count

    def test_the_last_block_stops_at_the_draw_budget(self):
        # 2 of 5 members after 999 draws: the last block holds 1 draw, not 3,
        # and the sampler gives up after the same 1000 draws as the oracle.
        scenario_set, cfg = ScenarioSet(np.full((3, 16), 0.4)), _low_battery(3.0)
        with pytest.raises(ValueError) as expected:
            _per_draw_sample(5, cfg, scenario_set, 0, 0.25, 0.9)
        assert str(expected.value).startswith("only 2 of 5 non-robust trajectories found in 1000 draws")
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            generate_infeasible_set(5, cfg, scenario_set, seed=0, dt=0.25, tau_scen=0.9)

    def test_every_member_fails_robustness(self, small_instance):
        scenario_set, cfg = small_instance
        threshold = epso.robust_threshold(scenario_set.count, 0.9)
        sample = generate_infeasible_set(30, cfg, scenario_set, seed=1, dt=0.25, tau_scen=0.9)
        assert len(sample.trajectories) == 30
        for traj in sample.trajectories:
            assert oracle_check(traj, scenario_set, cfg, 0.25) < threshold

    def test_fixed_seed_identical(self, small_instance):
        scenario_set, cfg = small_instance
        a = generate_infeasible_set(10, cfg, scenario_set, seed=2, dt=0.25, tau_scen=0.9)
        b = generate_infeasible_set(10, cfg, scenario_set, seed=2, dt=0.25, tau_scen=0.9)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.p_bat, tb.p_bat)
            assert np.array_equal(ta.p_ewh, tb.p_ewh)

    def test_acceptance_rate_recorded(self, small_instance):
        scenario_set, cfg = small_instance
        sample = generate_infeasible_set(20, cfg, scenario_set, seed=3, dt=0.25, tau_scen=0.9)
        assert 0.0 < sample.acceptance_rate <= 1.0
        assert sample.attempts >= 20

    def test_too_permissive_instance_errors(self):
        # a huge battery, a wide temperature band, and surplus-free scenarios
        # make every draw robust, so the sampler must give up
        from hemsflex.scenarios import ScenarioSet

        scenario_set = ScenarioSet(np.full((5, 16), 0.4))
        big = hems.BatteryConfig(
            capacity=4000.0, p_charge_max=1.5, p_discharge_max=1.5, soc_init=2000.0,
            soc_min_frac=0.0,
        )
        roomy = HemsConfig(
            battery=big,
            ewh=EwhConfig(p_nom=0.5, theta_min=5.0, theta_max=200.0, theta_init=60.0,
                          draw_profile=np.full(16, 1.0)),
        )
        with pytest.raises(ValueError, match="too permissive"):
            generate_infeasible_set(5, roomy, scenario_set, seed=4, dt=0.25, tau_scen=0.9)


class TestPcaDiversity:
    def test_identical_trajectories_flag_degenerate(self):
        trajs = [FlexTrajectory(p_bat=np.full(6, 0.5), p_ewh=np.zeros(6)) for _ in range(10)]
        report = pca_diversity(stacked(trajs))
        assert report.degenerate
        assert report.n_components_50 == 1
        assert report.n_components_80 == 1

    def test_rank_one_set_needs_single_component(self):
        rng = np.random.default_rng(42)
        direction = rng.random(8)
        trajs = [
            FlexTrajectory(p_bat=a * direction, p_ewh=np.zeros(8))
            for a in rng.uniform(-1.0, 1.0, 30)
        ]
        report = pca_diversity(stacked(trajs))
        assert not report.degenerate
        assert report.n_components_50 == 1
        assert report.n_components_80 == 1

    def test_fractions_are_valid_and_counts_ordered(self):
        rng = np.random.default_rng(43)
        trajs = [
            FlexTrajectory(p_bat=rng.uniform(-1, 1, 12), p_ewh=np.where(rng.random(12) < 0.5, 0.5, 0.0))
            for _ in range(60)
        ]
        report = pca_diversity(stacked(trajs))
        assert np.all(report.explained_fractions >= 0.0)
        assert report.explained_fractions.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(np.cumsum(report.explained_fractions)) >= -1e-12)
        assert report.n_components_50 <= report.n_components_80

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            pca_diversity(stacked([FlexTrajectory(p_bat=np.zeros(4), p_ewh=np.zeros(4))]))


def _normalized(model, *matrices):
    """The matrices normalized with the model's bounds, as `confusion_table`
    takes them."""
    return [svdd.normalize(x, model.norm_bounds) for x in matrices]


class TestConfusionTable:
    def _sets(self, seed=44):
        rng = np.random.default_rng(seed)
        feasible = [
            FlexTrajectory(p_bat=rng.normal(0, 0.2, 6), p_ewh=np.where(rng.random(6) < 0.5, 0.5, 0.0))
            for _ in range(100)
        ]
        infeasible = [
            FlexTrajectory(p_bat=rng.normal(0, 3.0, 6), p_ewh=np.where(rng.random(6) < 0.5, 0.5, 0.0))
            for _ in range(100)
        ]
        return stacked(feasible).matrix, stacked(infeasible).matrix

    def test_counts_add_up_and_percentages_recompute(self):
        feasible, infeasible = self._sets()
        model = svdd.fit_trajectories(
            feasible, svdd.KernelSpec("rbf", gamma=0.5), svdd.TrainingConfig(nu=0.1)
        )
        report = confusion_table(model, *_normalized(model, feasible, infeasible))
        assert report.feasible_correct + report.feasible_incorrect == 100
        assert report.infeasible_correct + report.infeasible_incorrect == 100
        assert report.feasible_error_pct == pytest.approx(report.feasible_incorrect, abs=1e-12)
        assert report.infeasible_error_pct == pytest.approx(report.infeasible_incorrect, abs=1e-12)

    @pytest.mark.parametrize("kind", ["rbf", "poly", "sigmoid"])
    def test_counts_match_per_trajectory_classify(self, kind):
        feasible, infeasible = self._sets()
        model = svdd.fit_trajectories(feasible, svdd.KernelSpec(kind, gamma=0.5), svdd.TrainingConfig(nu=0.1))
        feasible, infeasible = _normalized(model, feasible, infeasible)
        report = confusion_table(model, feasible, infeasible)
        assert report.feasible_correct == sum(svdd.classify(model, row[None])[0] for row in feasible)
        assert report.infeasible_incorrect == sum(svdd.classify(model, row[None])[0] for row in infeasible)

    def test_everything_feasible_model_is_degenerate(self):
        feasible, infeasible = self._sets(45)
        model = svdd.fit_trajectories(
            feasible, svdd.KernelSpec("rbf", gamma=0.5), svdd.TrainingConfig(nu=0.1)
        )
        model.radius2_threshold = 1e9  # accepts everything
        report = confusion_table(model, *_normalized(model, feasible, infeasible))
        assert report.feasible_error_pct == 0.0
        assert report.infeasible_error_pct == 100.0

    def test_nu_sweep_moves_errors_in_opposite_directions(self, small_instance):
        scenario_set, cfg = small_instance
        result = epso.run(
            epso.EpsoConfig(pop_size=12, max_iters=300, target_feasible=150, seed=9),
            scenario_set, cfg, dt=0.25,
        )
        assert result.completed
        feasible = result.feasible.trajectories.matrix
        infeasible = generate_infeasible_set(150, cfg, scenario_set, seed=10, dt=0.25, tau_scen=0.9).trajectories.matrix
        spec = svdd.KernelSpec("sigmoid", gamma=0.05)
        feas_err, infeas_err = [], []
        for nu in (0.01, 0.1, 0.15, 0.2):
            model = svdd.fit_trajectories(feasible, spec, svdd.TrainingConfig(nu=nu))
            report = confusion_table(model, *_normalized(model, feasible, infeasible))
            feas_err.append(report.feasible_error_pct)
            infeas_err.append(report.infeasible_error_pct)
        # directions only; this instance is small, so allow generous wobble
        # (the acceptance suite pins the tight slack on full-scale sets)
        slack = 5.0  # percentage points
        assert all(b >= a - slack for a, b in zip(feas_err, feas_err[1:]))
        assert all(b <= a + slack for a, b in zip(infeas_err, infeas_err[1:]))
        assert feas_err[-1] > feas_err[0] - 1.0  # overall rise across the sweep


class TestValidateSweep:
    """`validate` normalizes both cut sets once for the whole sweep; its rows
    must be those of fitting each pair on the raw cut feasible set and
    classifying both raw cut sets."""

    @pytest.mark.parametrize("window", [None, "01:00-03:00"])
    def test_rows_match_fit_and_confusion_table_per_pair(self, small_instance, window):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(46)
        # 130 rows: both sets cross the 64-row scoring block edge twice.
        feasible = stacked(
            FlexTrajectory(p_bat=rng.normal(0, 0.3, 16), p_ewh=np.where(rng.random(16) < 0.5, 0.5, 0.0))
            for _ in range(130)
        )
        kernels = tuple({"kind": kind, "gamma": 0.05} for kind in ("rbf", "poly", "sigmoid"))
        settings = analysis.ValidateConfig(
            dt_hours=0.25, infeasible_seed=47, baseline_seed=48, window=window, sweep_kernels=kernels,
            infeasible_count=130, baseline_count=2,
        )
        report = analysis.validate(feasible, scenario_set, cfg, settings, 0.9)
        feas, infeas = feasible, report.infeasible.trajectories
        if settings.window is not None:
            feas, infeas = feas.window(*settings.window), infeas.window(*settings.window)
        assert len(report.rows) == 12
        for row, (kernel, training) in zip(report.rows, settings.sweep):
            model = svdd.fit_trajectories(feas.matrix, kernel, training)
            assert row == confusion_table(model, *_normalized(model, feas.matrix, infeas.matrix))
            inside = [
                int(np.count_nonzero(svdd.within_boundary(model, svdd.score_trajectories(model, x))))
                for x in (feas.matrix, infeas.matrix)
            ]
            assert [row.feasible_correct, row.infeasible_incorrect] == inside


class TestSemiRandomBaseline:
    def test_members_pass_oracle_on_generating_scenario(self, small_instance):
        scenario_set, cfg = small_instance
        scenario = scenario_set.values[0]
        baseline = semi_random_baseline(40, cfg, scenario, seed=11, dt=0.25)
        assert len(baseline) == 40
        single = type(scenario_set)(scenario[None, :])
        for traj in baseline.trajectories:
            assert oracle_check(traj, single, cfg, 0.25) == 1

    def test_fixed_seed_identical(self, small_instance):
        scenario_set, cfg = small_instance
        scenario = scenario_set.values[0]
        a = semi_random_baseline(10, cfg, scenario, seed=12, dt=0.25)
        b = semi_random_baseline(10, cfg, scenario, seed=12, dt=0.25)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.p_bat, tb.p_bat)
            assert np.array_equal(ta.p_ewh, tb.p_ewh)

    def test_respects_power_band(self, small_instance):
        scenario_set, cfg = small_instance
        baseline = semi_random_baseline(20, cfg, scenario_set.values[1], seed=13, dt=0.25)
        for traj in baseline.trajectories:
            assert np.all(traj.p_bat <= cfg.battery.p_charge_max + 1e-12)
            assert np.all(traj.p_bat >= -cfg.battery.p_discharge_max - 1e-12)
            assert set(np.unique(traj.p_ewh)) <= {0.0, cfg.ewh.p_nom}

    def test_seed_failing_the_oracle_is_an_error(self, small_instance, monkeypatch):
        # A seed that discharges below the SoC floor at its first step breaks
        # a rule the greedy construction is meant to respect.
        scenario_set, cfg = small_instance
        broken = FlexTrajectory(p_bat=np.full(16, -1.5), p_ewh=np.zeros(16))
        assert oracle_check(broken, ScenarioSet(scenario_set.values[:1]), cfg, 0.25) == 0
        monkeypatch.setattr(analysis, "_greedy_member", lambda *args: broken.as_vector())
        with pytest.raises(ValueError, match="greedy baseline seed failed the oracle"):
            semi_random_baseline(10, cfg, scenario_set.values[0], seed=14, dt=0.25)


def _reference_semi_random_baseline(count, cfg, scenario, seed, dt):
    """The baseline chain as it walked before it kept the oracle's trail: SoC
    and headroom re-stepped over steps 0..h-1 for each mutant, and the whole
    mutant walked by the oracle. Kept as the reference that
    `semi_random_baseline` must match bit for bit."""
    scenario = np.asarray(scenario, dtype=float)
    horizon = scenario.shape[0]
    surplus = np.maximum(0.0, -scenario).tolist()
    draws = cfg.ewh.draws(horizon).tolist()
    p_nom = cfg.ewh.p_nom
    max_attempts = 200 * count + 1000
    rng = np.random.default_rng(seed)
    route = analysis._step_route(cfg, dt)
    (soc_init, _, band), absorb, charge, _, tracker = route
    oracle = analysis._oracle(cfg, ScenarioSet(scenario[None, :]), dt)

    feasible = epso.FeasibleSet(horizon=horizon)
    seed_row = analysis._greedy_member(cfg, route, surplus, draws, dt, rng)
    current = FlexTrajectory(p_bat=seed_row[:horizon], p_ewh=seed_row[horizon:])
    feasible.add(current.as_vector(), fitness=1)

    attempts = 0
    while len(feasible) < count:
        if attempts >= max_attempts:
            raise ValueError(
                f"baseline chain stalled: {len(feasible)} of {count} trajectories "
                f"after {max_attempts} mutation attempts"
            )
        attempts += 1
        h = int(rng.integers(horizon))
        mutant_bat = current.p_bat.copy()
        mutant_ewh = current.p_ewh.copy()
        if rng.random() < 0.3:
            mutant_ewh[h] = p_nom - mutant_ewh[h]
        bats, ewhs = mutant_bat.tolist(), mutant_ewh.tolist()
        # SoC and headroom just before step h under the current schedule
        soc, headroom = soc_init, band
        for k in range(h):
            soc = charge(soc, bats[k] + absorb(surplus[k], ewhs[k], headroom))
            headroom = tracker(headroom, surplus[k], ewhs[k])
        lo, hi = hems.feasible_power_range(soc, cfg, dt, absorb(surplus[h], ewhs[h], headroom))
        if hi < lo:
            continue
        bats[h] = mutant_bat[h] = rng.uniform(lo, hi)
        if oracle(bats, ewhs) == 1:
            current = FlexTrajectory(p_bat=mutant_bat, p_ewh=mutant_ewh)
            feasible.add(current.as_vector(), fitness=1)
    return feasible


def _outcome(build, *args):
    """The bytes of a chain's member matrix and its fitnesses, or the message
    of the ValueError it raised."""
    try:
        feasible = build(*args)
    except ValueError as exc:
        return "raised", str(exc)
    return feasible.trajectories.matrix.tobytes(), feasible.fitnesses


class TestBaselineChainTwin:
    """The trail-resuming chain against the full-walk reference: the same
    members, bit for bit, or the same error."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_the_full_walk_chain(self, small_instance, data):
        if data.draw(st.booleans(), label="small"):
            scenario_set, cfg = small_instance
            dt, rows = 0.25, scenario_set.values
        else:
            cfg, dt, _, _, rows = data.draw(lane_instances(), label="lane")
        row = rows[data.draw(st.integers(0, rows.shape[0] - 1), label="row")].copy()
        shape = data.draw(st.sampled_from(["as drawn", "surplus at step 0", "no surplus"]), label="shape")
        if shape == "surplus at step 0":
            row[0] = -0.3
        elif shape == "no surplus":
            row = np.abs(row)
        count = data.draw(st.integers(2, 40), label="count")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        args = (count, cfg, row, seed, dt)
        assert _outcome(semi_random_baseline, *args) == _outcome(_reference_semi_random_baseline, *args)

    def test_stall_raises_the_same_message(self, small_instance):
        # Battery and heater ratings far below DEDUP_TOL make every mutant a
        # duplicate of the seed, so the chain runs out of attempts.
        scenario_set, cfg = small_instance
        tiny = HemsConfig(
            battery=hems.BatteryConfig(
                capacity=3.2, p_charge_max=1e-7, p_discharge_max=1e-7, soc_init=1.92
            ),
            ewh=EwhConfig(p_nom=1e-8, theta_min=45.0, theta_max=80.0, theta_init=60.0,
                          draw_profile=np.full(16, 1.0)),
        )
        args = (20, tiny, scenario_set.values[0], 15, 0.25)
        expected = _outcome(_reference_semi_random_baseline, *args)
        assert expected[0] == "raised" and "baseline chain stalled" in expected[1]
        assert _outcome(semi_random_baseline, *args) == expected

    def test_resumed_walk_matches_a_full_count_at_every_step(self, small_instance):
        scenario_set, cfg = small_instance
        rng = np.random.default_rng(16)
        for row in scenario_set.values[:4]:
            oracle = analysis._oracle(cfg, ScenarioSet(row[None, :]), 0.25)
            member = semi_random_baseline(2, cfg, row, seed=int(rng.integers(2**32)), dt=0.25).trajectories[0]
            bats, ewhs = member.p_bat.tolist(), member.p_ewh.tolist()
            trail = []
            assert oracle(bats, ewhs, trail=trail) == 1
            assert len(trail) == 17
            verdicts = set()
            for h in range(16):
                for p_bat in (rng.uniform(-1.5, 1.5), -1.5, 1.5, bats[h]):
                    for p_ewh in (ewhs[h], 0.5 - ewhs[h]):
                        mutant_bats, mutant_ewhs = bats.copy(), ewhs.copy()
                        mutant_bats[h], mutant_ewhs[h] = p_bat, p_ewh
                        resumed = trail[: h + 1]
                        full = oracle(mutant_bats, mutant_ewhs)
                        assert oracle(mutant_bats, mutant_ewhs, trail=resumed) == full
                        verdicts.add(full)
                        if full:
                            # an accepted mutant's trail is its own walk from step 0
                            fresh = []
                            oracle(mutant_bats, mutant_ewhs, trail=fresh)
                            assert resumed == fresh
            assert verdicts == {0, 1}

    def test_trail_needs_a_one_scenario_instance(self, small_instance):
        scenario_set, cfg = small_instance
        oracle = analysis._oracle(cfg, scenario_set, 0.25)
        with pytest.raises(ValueError, match="one-scenario instance, not 20 scenarios"):
            oracle([0.0] * 16, [0.0] * 16, trail=[])


def _builtin_step_route(cfg, dt):
    """`analysis._step_route` as written with builtin min and max calls,
    before they became comparisons: the reference its closures must match
    bit for bit."""
    bat, ewh = cfg.battery, cfg.ewh
    p_charge_max, p_discharge_max, efficiency = bat.p_charge_max, bat.p_discharge_max, bat.efficiency
    band = bat.soc_max - bat.soc_min
    gain = dt / ewh.thermal_capacity
    alpha, house, c_p = ewh.alpha_mag, ewh.theta_house, ewh.c_p
    lift = ewh.theta_des - ewh.theta_inl

    def absorb(surplus, p_ewh, headroom):
        if surplus > 0.0:
            return min(min(max(0.0, surplus - p_ewh), p_charge_max), max(headroom, 0.0) / dt)
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
        if surplus > 0.0:
            return max(0.0, headroom - min(max(0.0, surplus - p_ewh), p_charge_max) * dt)
        return min(headroom + p_discharge_max * dt, band)

    return (bat.soc_init, ewh.theta_init, band), absorb, charge, tank, tracker


def _builtin_walk(cfg, dt, state, p_bat, p_ewh, loads, trail):
    """`analysis._oracle`'s walk of one scenario row of net loads, with
    builtin min and max calls, from `state`: the state after the last step,
    or None at the first violation, with each state passed appended to
    `trail`."""
    eps = analysis._ORACLE_EPS
    _, absorb, charge, tank, tracker = _builtin_step_route(cfg, dt)
    bat, ewh = cfg.battery, cfg.ewh
    capacity, p_charge_max = bat.capacity, bat.p_charge_max
    knee_soc = bat.taper_knee * capacity
    taper_span = capacity - knee_soc
    taper_drop = bat.taper_floor * p_charge_max - p_charge_max
    draws = ewh.draws(len(loads)).tolist()
    soc, theta, headroom = state
    for pb, pe, load, draw in zip(p_bat, p_ewh, loads, draws):
        sur = max(0.0, -load)
        supposed = absorb(sur, pe, headroom)
        if supposed > eps and pb < -eps:
            return None
        p_eff = pb + supposed
        s = min(max(soc, 0.0), capacity)
        limit = p_charge_max if s <= knee_soc else p_charge_max + (s - knee_soc) / taper_span * taper_drop
        if p_eff > limit + eps:
            return None
        soc = charge(soc, p_eff)
        if soc > bat.soc_max + eps or soc < bat.soc_min - eps:
            return None
        theta = tank(theta, pe, draw)
        if theta < ewh.theta_min - eps or theta > ewh.theta_max + eps:
            return None
        headroom = tracker(headroom, sur, pe)
        trail.append((soc, theta, headroom))
    return soc, theta, headroom


def _float_bits(values):
    """The float64 bits of a flat or nested sequence of floats, so that -0.0,
    0.0 and NaN payloads count as different values."""
    return np.array(values, dtype=float).view(np.int64).tolist()


# Inputs at the clips' edges, the NaN that every comparison fails on, and the
# two zeros that min and max tell apart only by operand order.
SIGNED = [np.nan, 0.0, -0.0, -1.0, 1e-12, 0.5, 1.5, 3.0, np.inf, -np.inf]


class TestComparisonRoute:
    """The step route and the oracle's walk clip with comparisons; they must
    return what builtin min and max calls return, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(instance=lane_instances())
    def test_closures_match_the_builtin_route(self, instance):
        cfg, dt, _, _, _ = instance
        start, absorb, charge, tank, tracker = analysis._step_route(cfg, dt)
        ref_start, ref_absorb, ref_charge, ref_tank, ref_tracker = _builtin_step_route(cfg, dt)
        assert _float_bits(start) == _float_bits(ref_start)
        band = start[2]
        headrooms = SIGNED + [band, np.nextafter(band, 0.0), np.nextafter(band, 4.0), band / 2]
        surpluses = SIGNED + [P_NOM, P_NOM + EPS, P_MAX + P_NOM, cfg.battery.p_charge_max]
        heaters = [0.0, -0.0, P_NOM, np.nan, 3.0]
        for sur in surpluses:
            for pe in heaters:
                for headroom in headrooms:
                    assert _float_bits(absorb(sur, pe, headroom)) == _float_bits(ref_absorb(sur, pe, headroom))
                    assert _float_bits(tracker(headroom, sur, pe)) == _float_bits(ref_tracker(headroom, sur, pe))
        for value in headrooms:
            for p in SIGNED:
                assert _float_bits(charge(value, p)) == _float_bits(ref_charge(value, p))
                assert _float_bits(tank(value, p, 1.0)) == _float_bits(ref_tank(value, p, 1.0))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(instance=lane_instances(), data=st.data())
    def test_walk_matches_the_builtin_walk(self, instance, data):
        cfg, dt, p_bat, p_ewh, rows = instance
        horizon = p_bat.shape[1]
        # NaN and signed zeros in the trajectories, signed zeros in the net
        # loads (a `ScenarioSet` holds no NaN), and battery powers beyond the
        # rating, which only a NaN limit lets pass.
        for matrix, values in ((p_bat, [np.nan, 0.0, -0.0, 2 * P_MAX, -2 * P_MAX]), (p_ewh, [np.nan, 0.0, -0.0]),
                               (rows, [0.0, -0.0])):
            special = st.sampled_from(values)
            for _ in range(data.draw(st.integers(0, 2), label="specials")):
                index = data.draw(st.tuples(st.integers(0, matrix.shape[0] - 1), st.integers(0, horizon - 1)))
                matrix[index] = data.draw(special, label="value")
        band = cfg.battery.soc_max - cfg.battery.soc_min
        soc = data.draw(st.sampled_from([cfg.battery.soc_init, 0.0, -0.0, KNEE, np.nextafter(KNEE, 4.0),
                                         CAPACITY, np.nextafter(CAPACITY, 4.0), np.nan]), label="soc")
        headroom = data.draw(st.sampled_from([band, 0.0, -0.0, np.nextafter(band, 4.0), np.nan]), label="headroom")
        start = (soc, cfg.ewh.theta_init, headroom)
        ref_start = (cfg.battery.soc_init, cfg.ewh.theta_init, band)
        for bats, ewhs in zip(p_bat.tolist(), p_ewh.tolist()):
            for row in rows:
                oracle = analysis._oracle(cfg, ScenarioSet(row[None, :]), dt)
                trail, ref_trail = [start], [start]
                count = oracle(bats, ewhs, trail=trail)
                expected = _builtin_walk(cfg, dt, start, bats, ewhs, row.tolist(), ref_trail) is not None
                assert count == int(expected)
                assert _float_bits(trail) == _float_bits(ref_trail)
            # The shared-prefix walk of several rows counts what a walk of
            # each row from the first step gives.
            assert analysis._oracle(cfg, ScenarioSet(rows), dt)(bats, ewhs) == sum(
                _builtin_walk(cfg, dt, ref_start, bats, ewhs, row.tolist(), []) is not None for row in rows
            )

    def test_a_nan_soc_stays_nan_through_the_clip(self, small_instance):
        # min(max(nan, 0.0), capacity) is NaN, so the taper limit is NaN and
        # no charge-rate test fails, even at twice the rating.
        scenario_set, cfg = small_instance
        loads = np.abs(scenario_set.values[0])
        start = (np.nan, cfg.ewh.theta_init, cfg.battery.soc_max - cfg.battery.soc_min)
        bats, ewhs = [2 * cfg.battery.p_charge_max] * 16, [0.0] * 16
        trail, ref_trail = [start], [start]
        assert analysis._oracle(cfg, ScenarioSet(loads[None, :]), 0.25)(bats, ewhs, trail=trail) == 1
        assert _builtin_walk(cfg, 0.25, start, bats, ewhs, loads.tolist(), ref_trail) is not None
        assert _float_bits(trail) == _float_bits(ref_trail)
