"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured numbers once its assertions hold.

The heavy artifacts (reference-scale search, infeasible set, baseline set)
are built once per session and shared across criteria.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from hemsflex import analysis, cli, epso, hems, scenarios, svdd

DATA = Path(__file__).resolve().parent.parent / "data"
DT = 0.25
WINDOW = (36, 52)  # 09:00-13:00 at 15-minute steps
NU_GRID = (0.01, 0.1, 0.15, 0.2)


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="session")
def reference_instance():
    marginals = scenarios.read_marginals_csv(DATA / "marginals_96.csv")
    draws = hems.read_draw_profile_csv(DATA / "draws_96.csv")
    cfg = hems.HemsConfig.from_json(DATA / "hems.json", draw_profile=draws)
    scenario_set = scenarios.generate_scenarios(
        marginals, scenarios.CopulaConfig(count=100, nu_cov=4.0, seed=20240601)
    )
    return scenario_set, cfg


@pytest.fixture(scope="session")
def reference_run(reference_instance):
    """Reference-scale search: 96 steps, 100 scenarios, 30 particles,
    target 1000 robust trajectories."""
    scenario_set, cfg = reference_instance
    epso_cfg = epso.EpsoConfig(seed=19)
    t0 = time.perf_counter()
    result = epso.run(epso_cfg, scenario_set, cfg, DT)
    elapsed = time.perf_counter() - t0
    return result, elapsed, epso_cfg


@pytest.fixture(scope="session")
def infeasible_set(reference_instance):
    scenario_set, cfg = reference_instance
    return analysis.generate_infeasible_set(
        1000, cfg, scenario_set, seed=77, dt=DT, tau_scen=0.9
    )


@pytest.fixture(scope="session")
def windowed_sets(reference_run, infeasible_set):
    result, _, _ = reference_run
    feasible = hems.TrajectorySet(result.feasible.trajectories.matrix[:1000]).window(*WINDOW)
    infeasible = infeasible_set.trajectories.window(*WINDOW)
    return feasible.matrix, infeasible.matrix


class TestCriterion1EndToEndSoundness:
    def test_search_emits_oracle_sound_set_in_time(self, reference_instance, reference_run):
        scenario_set, cfg = reference_instance
        result, elapsed, epso_cfg = reference_run
        assert result.completed, result.warning
        assert len(result.feasible) >= 1000
        threshold = epso.robust_threshold(scenario_set.count, epso_cfg.tau_scen)
        assert threshold == 90
        compliant = 0
        for traj in result.feasible.trajectories:
            assert analysis.oracle_check(traj, scenario_set, cfg, DT) >= threshold
            compliant += 1
        assert compliant == len(result.feasible)
        assert elapsed <= 25 * 60
        report(
            1,
            f"{len(result.feasible)} trajectories, all {compliant} oracle-compliant in >= "
            f"{threshold}/100 scenarios, search took {elapsed:.1f}s (limit 1500s)",
        )


class TestCriterion2WorkedExample:
    def test_flexibility_band_and_infeasible_offer(self):
        battery = hems.BatteryConfig(
            capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5,
            soc_init=0.64, efficiency=1.0, soc_min_frac=0.15,
        )
        cfg = hems.HemsConfig(
            battery=battery,
            ewh=hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0),
        )
        lo, hi = hems.feasible_power_range(0.64, cfg, dt=1.0)
        assert lo == pytest.approx(-0.16, abs=1e-12)
        traj = hems.FlexTrajectory(p_bat=np.array([0.0, -0.5, 0.0]), p_ewh=np.zeros(3))
        result = hems.simulate(traj, np.zeros(3), cfg, dt=1.0)
        assert result.penalty > 0
        assert result.violations["soc_min"][1]
        assert not result.violations["soc_min"][0]
        assert np.allclose(result.soc, [0.64, 0.14, 0.14])
        report(2, "first-step discharge bound 0.16 kW; offer [0,-0.5,0] infeasible at step 2")


class TestCriterion3ThermalStep:
    def test_hand_evaluated_updates_within_1e9(self):
        ewh = hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0)
        heating = 60.0 + (0.25 / 0.117) * (0.5 - 9.42e-4 * (60.0 - 20.0))
        drawing = 60.0 + (0.25 / 0.117) * (-9.42e-4 * (60.0 - 20.0) - 1.163e-3 * 10.0 * (38.0 - 17.0))
        got_heating = hems.ewh_step(60.0, 0.5, 0.0, 0.25, ewh)
        got_drawing = hems.ewh_step(60.0, 0.0, 10.0, 0.25, ewh)
        assert got_heating == pytest.approx(heating, abs=1e-9)
        assert got_drawing == pytest.approx(drawing, abs=1e-9)
        report(3, f"thermal steps match hand values ({got_heating:.6f}, {got_drawing:.6f}) to 1e-9")


class TestCriterion4BoundaryTradeoff:
    def test_sigmoid_nu_sweep_trend(self, windowed_sets):
        t0 = time.perf_counter()
        feasible, infeasible = windowed_sets
        spec = svdd.KernelSpec(kind="sigmoid", gamma=0.05)
        feas_err, infeas_err = [], []
        for nu in NU_GRID:
            model = svdd.fit_trajectories(feasible, spec, svdd.TrainingConfig(nu=nu))
            scaled = (svdd.normalize(x, model.norm_bounds) for x in (feasible, infeasible))
            rep = analysis.confusion_table(model, *scaled)
            feas_err.append(rep.feasible_error_pct)
            infeas_err.append(rep.infeasible_error_pct)
        slack = 1.0
        assert all(b >= a - slack for a, b in zip(feas_err, feas_err[1:])), feas_err
        assert all(b <= a + slack for a, b in zip(infeas_err, infeas_err[1:])), infeas_err
        at_15 = feas_err[NU_GRID.index(0.15)]
        assert 15.0 - 5.0 <= at_15 <= 15.0 + 5.0
        elapsed = time.perf_counter() - t0
        assert elapsed <= 5 * 60
        report(
            4,
            f"feasible error {['%.2f' % e for e in feas_err]} non-decreasing, infeasible "
            f"error {['%.2f' % e for e in infeas_err]} non-increasing, nu=0.15 error "
            f"{at_15:.2f}% in [10, 20], took {elapsed:.1f}s",
        )


class TestCriterion5NuProperty:
    @pytest.mark.parametrize("kind", ["rbf", "poly", "sigmoid"])
    def test_support_and_outlier_fractions(self, kind, windowed_sets):
        feasible, _ = windowed_sets
        assert len(feasible) == 1000
        lines = []
        for nu in NU_GRID:
            model = svdd.fit_trajectories(
                feasible, svdd.KernelSpec(kind=kind, gamma=0.05), svdd.TrainingConfig(nu=nu)
            )
            sv_fraction = model.n_support / 1000
            scaled = svdd.normalize(feasible, model.norm_bounds)
            outliers = sum(1 for row in scaled if not svdd.classify(model, row[None])[0]) / 1000
            assert sv_fraction >= nu - 0.02, (kind, nu, sv_fraction)
            assert outliers <= nu + 0.02, (kind, nu, outliers)
            lines.append(f"nu={nu}: sv={sv_fraction:.3f} out={outliers:.3f}")
        report(5, f"{kind}: " + "; ".join(lines))


class TestCriterion6CopulaFidelity:
    def test_gaussian_layer_statistics(self):
        t0 = time.perf_counter()
        cov = scenarios.build_covariance(24, 4.0)
        z = scenarios.sample_gaussian_copula(cov, 100_000, seed=4242)
        means = z.mean(axis=0)
        variances = z.var(axis=0)
        assert np.all(np.abs(means) < 0.02)
        assert np.all(np.abs(variances - 1.0) < 0.03)
        lag_corr = {}
        for lag in (1, 4):
            corrs = [np.corrcoef(z[:, k], z[:, k + lag])[0, 1] for k in range(24 - lag)]
            lag_corr[lag] = float(np.mean(corrs))
            assert abs(lag_corr[lag] - np.exp(-lag / 4.0)) < 0.02
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60
        report(
            6,
            f"lag-1 corr {lag_corr[1]:.4f} (target {np.exp(-0.25):.4f}), lag-4 corr "
            f"{lag_corr[4]:.4f} (target {np.exp(-1.0):.4f}), moments in band, {elapsed:.1f}s",
        )


class TestCriterion7DiversityOrdering:
    def test_search_set_needs_at_least_baseline_components(self, reference_instance, reference_run):
        scenario_set, cfg = reference_instance
        result, _, _ = reference_run
        baseline = analysis.semi_random_baseline(
            len(result.feasible), cfg, scenario_set.values[0], seed=55, dt=DT
        )
        search_div = analysis.pca_diversity(result.feasible.trajectories)
        base_div = analysis.pca_diversity(baseline.trajectories)
        assert search_div.n_components_50 >= base_div.n_components_50
        assert search_div.n_components_80 >= base_div.n_components_80
        report(
            7,
            f"components to 50%/80%: search {search_div.n_components_50}/"
            f"{search_div.n_components_80} >= baseline {base_div.n_components_50}/"
            f"{base_div.n_components_80}",
        )


class TestCriterion8OracleEquivalence:
    @pytest.mark.parametrize("horizon", [4, 8, 96])
    def test_dual_route_exact_agreement(self, horizon, reference_instance):
        scenario_full, cfg = reference_instance
        rng = np.random.default_rng(1000 + horizon)
        columns = rng.choice(96, size=horizon, replace=False) if horizon < 96 else np.arange(96)
        scenario_set = scenarios.ScenarioSet(scenario_full.values[:20, np.sort(columns)])
        draws = cfg.ewh.draws(96)[np.sort(columns)]
        local_cfg = hems.HemsConfig(
            battery=cfg.battery,
            ewh=hems.EwhConfig(
                p_nom=cfg.ewh.p_nom, theta_min=cfg.ewh.theta_min, theta_max=cfg.ewh.theta_max,
                theta_init=cfg.ewh.theta_init, draw_profile=draws,
            ),
        )
        for _ in range(1000):
            traj = hems.FlexTrajectory(
                p_bat=rng.uniform(-1.5, 1.5, horizon),
                p_ewh=np.where(rng.random(horizon) < rng.uniform(0.0, 0.6), 0.5, 0.0),
            )
            assert epso.evaluate_fitness(traj, scenario_set, local_cfg, DT) == analysis.oracle_check(
                traj, scenario_set, local_cfg, DT
            )
        report(8, f"T={horizon}: 1000 randomized trajectory evaluations agree exactly")


class TestCriterion9Determinism:
    def test_pipeline_bit_identical_across_runs_and_threads(self, tmp_path):
        from tests.conftest import example_inputs, make_marginals

        base = np.concatenate([np.full(4, 0.4), np.linspace(0.1, -0.25, 4), np.full(4, 0.5)])
        example_inputs.write_marginals_csv(tmp_path / "marginals.csv", make_marginals(base, sigma=0.06))
        example_inputs.write_draw_profile_csv(tmp_path / "draws.csv", np.full(12, 1.0))
        example_inputs.write_hems_json(tmp_path / "hems.json", hems.HemsConfig(
            battery=hems.BatteryConfig(
                capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=1.92, efficiency=0.925
            ),
            ewh=hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0),
        ))
        config = {
            "dt_hours": 0.25,
            "seed": 31,
            "paths": {"marginals": "marginals.csv", "hems": "hems.json", "draws": "draws.csv"},
            "copula": {"count": 12, "nu_cov": 4.0},
            "epso": {"pop_size": 8, "max_iters": 120, "target_feasible": 30},
            "svdd": {"kernel": {"kind": "sigmoid", "gamma": 0.05}, "nu": 0.15},
            "validate": {"window": [4, 8], "sweep_nus": [0.1, 0.2],
                         "infeasible_count": 30, "baseline_count": 30},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))

        tracked = ["scenarios.csv", "feasible.csv", "model.json", "confusion.csv",
                   "validation.json", "verdicts.csv"]

        def run_pipeline(out_name: str, threads: int) -> dict[str, bytes]:
            out = tmp_path / out_name
            args = ["--config", str(tmp_path / "config.json"), "--out", str(out),
                    "--threads", str(threads)]
            for command in ("gen-scenarios", "search", "train"):
                assert cli.main(args + [command]) == 0
            assert cli.main(
                args + ["classify", "--model", str(out / "model.json"),
                        "--input", str(out / "feasible.csv")]
            ) == 0
            assert cli.main(args + ["validate"]) == 0
            return {name: (out / name).read_bytes() for name in tracked}

        first = run_pipeline("run_a", threads=1)
        second = run_pipeline("run_b", threads=1)
        threaded = run_pipeline("run_c", threads=4)
        for name in tracked:
            assert first[name] == second[name], f"{name} differs between identical runs"
            assert first[name] == threaded[name], f"{name} differs with --threads 4"
        report(9, f"{len(tracked)} artifact files bit-identical across reruns and thread counts")
