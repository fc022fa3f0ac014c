"""End-to-end CLI checks on a miniature instance: every subcommand, the exit
codes, artifact formats, and byte-level rerun determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from hemsflex import cli, epso, hems, scenarios
from hemsflex.hems import FlexTrajectory
from tests.conftest import make_marginals


@pytest.fixture
def workdir(tmp_path):
    """Config plus input files for a 12-step, 15-scenario instance."""
    base = np.concatenate([np.full(4, 0.4), np.linspace(0.1, -0.25, 4), np.full(4, 0.5)])
    marginals = make_marginals(base, sigma=0.06)
    scenarios.write_marginals_csv(tmp_path / "marginals.csv", marginals)
    hems.write_draw_profile_csv(tmp_path / "draws.csv", np.full(12, 1.0))
    cfg = hems.HemsConfig(
        battery=hems.BatteryConfig(
            capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=1.92, efficiency=0.925
        ),
        ewh=hems.EwhConfig(p_nom=0.5, theta_min=45.0, theta_max=80.0, theta_init=60.0),
    )
    cfg.to_json(tmp_path / "hems.json")
    config = {
        "dt_hours": 0.25,
        "seed": 17,
        "out_dir": "out",
        "paths": {"marginals": "marginals.csv", "hems": "hems.json", "draws": "draws.csv"},
        "copula": {"count": 15, "nu_cov": 4.0},
        "epso": {"pop_size": 8, "max_iters": 150, "target_feasible": 40},
        "svdd": {"kernel": {"kind": "sigmoid", "gamma": 0.05}, "nu": 0.15},
        "validate": {
            "window": [4, 8],
            "sweep_nus": [0.1, 0.2],
            "infeasible_count": 40,
            "baseline_count": 40,
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config, indent=2))
    return tmp_path


def invoke(workdir, *args):
    return cli.main(["--config", str(workdir / "config.json"), *args])


class TestPipeline:
    def test_full_pipeline_produces_all_artifacts(self, workdir, capsys):
        assert invoke(workdir, "gen-scenarios") == 0
        out = workdir / "out"
        assert (out / "scenarios.csv").exists()
        meta = json.loads((out / "scenarios_meta.json").read_text())
        assert meta["count"] == 15 and meta["horizon"] == 12 and meta["nu_cov"] == 4.0

        assert invoke(workdir, "search") == 0
        trajectories, fitnesses = epso.read_trajectories_csv(out / "feasible.csv")
        assert len(trajectories) >= 40
        assert all(f >= epso.robust_threshold(15, 0.9) for f in fitnesses)
        log_lines = [json.loads(line) for line in (out / "search_log.jsonl").read_text().splitlines()]
        assert log_lines[-1]["event"] == "summary"
        assert log_lines[-1]["completed"] is True

        assert invoke(workdir, "train") == 0
        model_doc = json.loads((out / "model.json").read_text())
        assert set(model_doc) == {
            "kernel", "nu", "norm_bounds", "support_vectors", "coefficients",
            "radius2_threshold", "const_term",
        }

        assert invoke(workdir, "classify", "--model", str(out / "model.json"),
                      "--input", str(out / "feasible.csv")) == 0
        verdict_lines = (out / "verdicts.csv").read_text().splitlines()
        assert verdict_lines[0] == "verdict,r2"
        assert len(verdict_lines) == len(trajectories) + 1
        verdicts = [line.split(",")[0] for line in verdict_lines[1:]]
        assert verdicts.count("feasible") >= 0.7 * len(trajectories)

        assert invoke(workdir, "validate") == 0
        confusion = (out / "confusion.csv").read_text().splitlines()
        assert confusion[0].startswith("kernel,gamma,nu")
        assert len(confusion) == 1 + 3 * 2  # three kernels, two nu values
        summary = json.loads((out / "validation.json").read_text())
        assert summary["window"] == {"start_step": 4, "stop_step": 8, "steps": 4}
        assert summary["diversity"]["search_set"]["n_components_50"] >= 1
        assert (out / "infeasible.csv").exists()
        assert (out / "baseline.csv").exists()

    def test_rerun_is_byte_identical(self, workdir):
        for command in ("gen-scenarios", "search", "train"):
            assert invoke(workdir, command) == 0
        out = workdir / "out"
        first = {
            name: (out / name).read_bytes()
            for name in ("scenarios.csv", "feasible.csv", "model.json")
        }
        for command in ("gen-scenarios", "search", "train"):
            assert invoke(workdir, command) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_threads_do_not_change_search_output(self, workdir):
        assert invoke(workdir, "gen-scenarios") == 0
        assert invoke(workdir, "search") == 0
        single = (workdir / "out" / "feasible.csv").read_bytes()
        assert invoke(workdir, "--threads", "4", "search") == 0
        assert (workdir / "out" / "feasible.csv").read_bytes() == single

    def test_seed_override_changes_scenarios(self, workdir):
        assert invoke(workdir, "gen-scenarios") == 0
        original = (workdir / "out" / "scenarios.csv").read_bytes()
        assert invoke(workdir, "--seed", "99", "gen-scenarios") == 0
        assert (workdir / "out" / "scenarios.csv").read_bytes() != original


class TestTrackedArtifacts:
    # Every tracked out/small file except search_log.jsonl, whose elapsed_s is
    # wall time.
    TRACKED = [
        "scenarios.csv", "scenarios_meta.json", "feasible.csv", "model.json", "verdicts.csv",
        "infeasible.csv", "baseline.csv", "confusion.csv", "validation.json",
    ]

    def test_small_config_reproduces_tracked_outputs(self, tmp_path):
        repo = Path(__file__).resolve().parent.parent
        args = ["--config", str(repo / "data" / "config_small.json"), "--out", str(tmp_path)]
        for command in ("gen-scenarios", "search", "train"):
            assert cli.main(args + [command]) == 0
        assert cli.main(
            args + ["classify", "--model", str(tmp_path / "model.json"), "--input", str(tmp_path / "feasible.csv")]
        ) == 0
        assert cli.main(args + ["validate"]) == 0
        for name in self.TRACKED:
            assert (tmp_path / name).read_bytes() == (repo / "out" / "small" / name).read_bytes(), name


class TestErrorPaths:
    def test_missing_input_file_exits_two(self, workdir):
        (workdir / "marginals.csv").unlink()
        assert invoke(workdir, "gen-scenarios") == 2

    def test_search_before_scenarios_exits_two(self, workdir):
        assert invoke(workdir, "search") == 2

    def test_malformed_config_exits_two(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text('{"paths": {}}')
        assert cli.main(["--config", str(bad), "gen-scenarios"]) == 2

    def test_classify_dimension_mismatch_exits_two(self, workdir):
        for command in ("gen-scenarios", "search", "train"):
            assert invoke(workdir, command) == 0
        out = workdir / "out"
        wrong = [FlexTrajectory(p_bat=np.zeros(5), p_ewh=np.zeros(5))]
        epso.write_trajectories_csv(out / "wrong.csv", wrong)
        assert invoke(
            workdir, "classify", "--model", str(out / "model.json"), "--input", str(out / "wrong.csv")
        ) == 2

    def test_classify_empty_input_writes_empty_verdicts(self, workdir):
        for command in ("gen-scenarios", "search", "train"):
            assert invoke(workdir, command) == 0
        out = workdir / "out"
        empty = out / "empty.csv"
        header = ",".join(
            [f"pbat_h{k}" for k in range(1, 13)] + [f"pewh_h{k}" for k in range(1, 13)] + ["fitness"]
        )
        empty.write_text(header + "\n")
        assert invoke(
            workdir, "classify", "--model", str(out / "model.json"), "--input", str(empty)
        ) == 0
        assert (out / "verdicts.csv").read_text().splitlines() == ["verdict,r2"]

    def test_partial_search_exits_zero_with_warning(self, workdir):
        config = json.loads((workdir / "config.json").read_text())
        config["epso"] = {"pop_size": 4, "max_iters": 2, "target_feasible": 10_000}
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "gen-scenarios") == 0
        assert invoke(workdir, "search") == 0
        log_lines = [
            json.loads(line) for line in (workdir / "out" / "search_log.jsonl").read_text().splitlines()
        ]
        summary = log_lines[-1]
        assert summary["completed"] is False
        assert summary["warning"]

    def test_impossible_instance_yields_empty_set_and_warning(self, workdir):
        # a sliver of a temperature band plus heavy draws: infeasible everywhere
        hems.write_draw_profile_csv(workdir / "draws.csv", np.full(12, 20.0))
        cfg = hems.HemsConfig(
            battery=hems.BatteryConfig(
                capacity=3.2, p_charge_max=1.5, p_discharge_max=1.5, soc_init=1.92
            ),
            ewh=hems.EwhConfig(p_nom=0.5, theta_min=59.9, theta_max=60.0, theta_init=60.0),
        )
        cfg.to_json(workdir / "hems.json")
        config = json.loads((workdir / "config.json").read_text())
        config["epso"] = {"pop_size": 4, "max_iters": 3, "target_feasible": 5}
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "gen-scenarios") == 0
        assert invoke(workdir, "search") == 0
        trajectories, _ = epso.read_trajectories_csv(workdir / "out" / "feasible.csv")
        assert trajectories == []
        summary = json.loads((workdir / "out" / "search_log.jsonl").read_text().splitlines()[-1])
        assert summary["feasible"] == 0
        assert summary["warning"]


class TestWindowParsing:
    def test_clock_window(self):
        assert cli.parse_window("09:00-13:00", 0.25, 96) == (36, 52)

    def test_sixteen_steps_for_reference_window(self):
        start, stop = cli.parse_window("09:00-13:00", 0.25, 96)
        assert stop - start == 16

    def test_index_window(self):
        assert cli.parse_window([4, 8], 0.25, 96) == (4, 8)

    def test_misaligned_window_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_window("09:10-13:00", 0.25, 96)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_window([0, 200], 0.25, 96)
