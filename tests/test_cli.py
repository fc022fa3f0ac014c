"""End-to-end CLI checks on a miniature instance: every subcommand, the exit
codes, artifact formats, and byte-level rerun determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hemsflex import analysis, cli, epso, hems, scenarios, svdd
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


# Swarm rates and dual-solver settings that are module constants, not config
# keys: a config that sets one, to any value, exits 2 as an unknown key.
CONSTANT_KEYS = {
    "epso": ("comm_factor", "mutation_max", "mutation_min", "tau_learn", "tau_prime", "tournament_win_prob",
             "seed_zero_fraction", "velocity_clamp_frac"),
    "svdd": ("tolerance", "max_passes"),
}


def rejection(section, key, rule):
    """What stderr must hold when `section.key` is set to a bad value that
    breaks `rule`: the unknown-key error comes first for a constant's key."""
    return f"unknown key(s) {key}" if key in CONSTANT_KEYS.get(section, ()) else rule


def stderr_of(capsys, workdir):
    """Captured stderr less the work directory's path: pytest names that
    directory after the test, so a check on the raw text can match the path."""
    return capsys.readouterr().err.replace(str(workdir), "")


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


class TestValidateRegeneratesSets:
    @pytest.fixture
    def validated(self, workdir):
        for command in ("gen-scenarios", "search", "validate"):
            assert invoke(workdir, command) == 0
        return workdir

    def test_seed_change_regenerates_both_sets(self, validated, tmp_path_factory):
        out = validated / "out"
        stale = {name: (out / name).read_bytes() for name in ("infeasible.csv", "baseline.csv")}
        fresh = tmp_path_factory.mktemp("fresh")
        for name in ("scenarios.csv", "feasible.csv"):
            (fresh / name).write_bytes((out / name).read_bytes())
        assert invoke(validated, "--seed", "99", "--out", str(fresh), "validate") == 0
        assert invoke(validated, "--seed", "99", "validate") == 0
        for name in ("infeasible.csv", "baseline.csv", "confusion.csv", "validation.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        for name, blob in stale.items():
            assert (out / name).read_bytes() != blob, name
        assert json.loads((out / "validation.json").read_text())["infeasible_sampling"] is not None

    def test_sweep_kernels_default_and_empty(self, validated):
        # sweep_kernels is absent in the fixture: the default three kernels
        confusion = (validated / "out" / "confusion.csv").read_text()
        assert len(confusion.splitlines()) == 1 + 3 * 2
        config = json.loads((validated / "config.json").read_text())
        config["validate"]["sweep_kernels"] = []
        (validated / "config.json").write_text(json.dumps(config))
        # An empty sweep validates nothing, so it is an input error that
        # leaves the last report in place.
        assert invoke(validated, "validate") == 2
        assert (validated / "out" / "confusion.csv").read_text() == confusion

    def test_count_change_resizes_both_sets(self, validated):
        config = json.loads((validated / "config.json").read_text())
        config["validate"].update(infeasible_count=25, baseline_count=30)
        (validated / "config.json").write_text(json.dumps(config))
        assert invoke(validated, "validate") == 0
        infeasible, _ = epso.read_trajectories_csv(validated / "out" / "infeasible.csv")
        baseline, _ = epso.read_trajectories_csv(validated / "out" / "baseline.csv")
        assert (len(infeasible), len(baseline)) == (25, 30)


class TestTrackedArtifacts:
    # Every tracked out/small file except search_log.jsonl, whose elapsed_s is
    # wall time. verdicts.csv holds the block-wise r2 of svdd.score_trajectories,
    # which can differ from a one-row computation in the last bits.
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

    @pytest.mark.parametrize(
        "section, key",
        [("copula", "cout"), ("epso", "pop_sise"), ("epso", "seed"), ("svdd", "nuu"),
         ("svdd.kernel", "gama"), ("validate", "infeasible_cout"), ("validate.sweep_kernels", "kindd"),
         *[(section, key) for section, keys in CONSTANT_KEYS.items() for key in keys]],
    )
    def test_unknown_config_key_exits_two(self, workdir, capsys, section, key):
        config = json.loads((workdir / "config.json").read_text())
        if section == "svdd.kernel":
            config["svdd"]["kernel"][key] = 1
        elif section == "validate.sweep_kernels":
            config["validate"]["sweep_kernels"] = [{"kind": "rbf", "gamma": 0.05, key: 1}]
        else:
            config[section][key] = 1
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "gen-scenarios") == 2
        assert f"unknown key(s) {key}" in stderr_of(capsys, workdir)

    @pytest.mark.parametrize(
        "section, key, value, rule",
        [("svdd", "nu", 2.0, "nu must lie strictly inside"),
         ("validate", "sweep_kernels", [{"kind": "rbf", "gamma": -1}], "rbf kernel needs gamma > 0"),
         ("validate", "sweep_nus", [0.1, 1.5], "nu must lie strictly inside"),
         ("epso", "pop_size", 0, "pop_size"),
         ("epso", "target_feasible", 10.5, "target_feasible"),
         *[("validate", "infeasible_count", value, "infeasible_count must be an integer of at least 1")
           for value in (10.5, 0, True, "100")],
         *[("validate", "baseline_count", value, "baseline_count must be an integer of at least 2")
           for value in (1, 2.7)],
         *[("epso", key, value, f"{key} must be a finite non-negative number")
           for key, value in (("tau_prime", float("nan")), ("tau_learn", float("nan")), ("tau_learn", -5.0),
                              ("mutation_max", float("nan")), ("mutation_max", float("inf")),
                              ("mutation_min", float("nan")))],
         *[("epso", "tournament_win_prob", value, "tournament_win_prob must lie in [0, 1]")
           for value in (1.7, -0.1, float("nan"))]],
    )
    def test_bad_config_value_exits_two(self, workdir, capsys, section, key, value, rule):
        config = json.loads((workdir / "config.json").read_text())
        config[section][key] = value
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "gen-scenarios") == 2
        err = stderr_of(capsys, workdir)
        assert section in err and rejection(section, key, rule) in err

    @pytest.mark.parametrize(
        "key, value",
        [("sweep_kernels", ""), ("sweep_kernels", {}), ("sweep_kernels", 5), ("sweep_kernels", {"kind": "rbf"}),
         ("sweep_nus", "0.1"), ("sweep_nus", {}), ("sweep_nus", 0.15)],
    )
    def test_sweep_not_a_list_exits_two(self, workdir, capsys, key, value):
        config = json.loads((workdir / "config.json").read_text())
        config["validate"][key] = value
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "gen-scenarios") == 2
        assert f"validate.{key} must be a JSON list, got {value!r}" in stderr_of(capsys, workdir)

    @pytest.mark.parametrize("key", ["sweep_kernels", "sweep_nus"])
    def test_empty_sweep_exits_two(self, workdir, capsys, key):
        config = json.loads((workdir / "config.json").read_text())
        config["validate"][key] = []
        (workdir / "config.json").write_text(json.dumps(config))
        for command in ("gen-scenarios", "validate"):
            assert invoke(workdir, command) == 2
            assert f"validate.{key} must not be empty" in stderr_of(capsys, workdir)

    @pytest.mark.parametrize("kind", ["poly", "sigmoid"])
    @pytest.mark.parametrize("gamma", [0.0, -0.05])
    def test_non_positive_gamma_exits_two(self, workdir, capsys, kind, gamma):
        """Such a kernel is rejected by `train`, through the config, and by
        `load_model`, through a model file."""
        model = {
            "kernel": {"kind": kind, "gamma": gamma}, "nu": 0.1, "norm_bounds": [[0.0, 1.0]],
            "support_vectors": [[0.5]], "coefficients": [1.0], "radius2_threshold": 0.0, "const_term": 1.0,
        }
        (workdir / "model.json").write_text(json.dumps(model))
        with pytest.raises(ValueError, match=f"{kind} kernel needs gamma > 0"):
            svdd.load_model(workdir / "model.json")
        config = json.loads((workdir / "config.json").read_text())
        config["svdd"]["kernel"].update(kind=kind, gamma=gamma)
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "train") == 2
        assert f"svdd.kernel: {kind} kernel needs gamma > 0" in stderr_of(capsys, workdir)

    @pytest.mark.parametrize(
        "key, value, message",
        [("sweep_kernels", ["rbf"], "validate.sweep_kernels[0] must be a JSON object"),
         ("sweep_kernels", [5], "validate.sweep_kernels[0] must be a JSON object"),
         ("sweep_kernels", [{"kind": "rbf", "gamma": 0.05}, {"kind": "linear"}],
          "validate.sweep_kernels[1]: unknown kernel kind 'linear'"),
         ("sweep_nus", [0.1, 1.5], "validate.sweep_nus[1]: nu must lie strictly inside")],
    )
    def test_bad_sweep_entry_is_named_by_index(self, workdir, capsys, key, value, message):
        config = json.loads((workdir / "config.json").read_text())
        config["validate"][key] = value
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "gen-scenarios") == 2
        assert message in stderr_of(capsys, workdir)

    @pytest.mark.parametrize(
        "section, key",
        [("epso", "pop_size"), ("epso", "max_iters"), ("epso", "target_feasible"), ("copula", "count"),
         ("svdd", "max_passes"), ("svdd.kernel", "degree")],
    )
    def test_bool_count_exits_two(self, workdir, capsys, section, key):
        config = json.loads((workdir / "config.json").read_text())
        owner = config
        for part in section.split("."):
            owner = owner[part]
        owner[key] = True
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "gen-scenarios") == 2
        err = stderr_of(capsys, workdir)
        assert section in err and key in err and rejection(section, key, "True") in err

    @pytest.mark.parametrize(
        "section, key, value",
        [("copula", "nu_cov", True), ("copula", "nu_cov", float("inf")),
         *[("epso", key, True)
           for key in ("comm_factor", "mutation_max", "mutation_min", "tau_learn", "tau_prime", "tau_scen",
                       "tournament_win_prob", "seed_zero_fraction", "velocity_clamp_frac")],
         ("svdd", "nu", True), ("svdd", "tolerance", True), ("svdd", "tolerance", float("inf")),
         ("svdd.kernel", "gamma", True), ("svdd.kernel", "coef0", True), ("epso", "tau_scen", float("inf"))],
    )
    def test_bool_or_infinite_float_exits_two(self, workdir, capsys, section, key, value):
        config = json.loads((workdir / "config.json").read_text())
        owner = config
        for part in section.split("."):
            owner = owner[part]
        owner[key] = value
        (workdir / "config.json").write_text(json.dumps(config))
        assert invoke(workdir, "gen-scenarios") == 2
        err = stderr_of(capsys, workdir)
        assert section in err and key in err and rejection(section, key, repr(value)) in err

    @pytest.mark.parametrize("window", ["09:00-30:00", "09:00-24:15", "09:07-13:00", "13:00-09:00", [4.5, 8], "9-13"])
    def test_bad_window_fails_every_command(self, workdir, capsys, window):
        assert invoke(workdir, "gen-scenarios") == 0
        config = json.loads((workdir / "config.json").read_text())
        config["validate"]["window"] = window
        (workdir / "config.json").write_text(json.dumps(config))
        out = workdir / "out"
        for command in (["gen-scenarios"], ["search"], ["train"], ["validate"],
                        ["classify", "--model", str(out / "model.json"), "--input", str(out / "feasible.csv")]):
            capsys.readouterr()
            assert invoke(workdir, *command) == 2, command
            assert "validate: window" in stderr_of(capsys, workdir), command

    @pytest.mark.parametrize(
        "edit, named",
        [({"dt_hour": 1.0}, "dt_hour"), ({"dt_hours": 0}, "dt_hours"), ({"dt_hours": -0.25}, "dt_hours"),
         ({"paths": {"marginals": "marginals.csv", "hems": "hems.json", "draw": "draws.csv"}}, "draw"),
         ({"dt_hours": True}, "dt_hours"), ({"seed": True}, "seed"), ({"seed": 7.9}, "seed"),
         ({"paths": {"marginals": 5, "hems": "hems.json"}}, "paths.marginals must be a JSON string, got 5"),
         ({"paths": {"marginals": "marginals.csv", "hems": "hems.json", "draws": None}},
          "paths.draws must be a JSON string, got None"),
         ({"out_dir": 5}, "out_dir must be a JSON string, got 5")],
    )
    def test_bad_top_level_or_paths_fails_every_command(self, workdir, capsys, edit, named):
        assert invoke(workdir, "gen-scenarios") == 0
        config = json.loads((workdir / "config.json").read_text())
        config.update(edit)
        (workdir / "config.json").write_text(json.dumps(config))
        out = workdir / "out"
        for command in (["gen-scenarios"], ["search"], ["train"], ["validate"],
                        ["classify", "--model", str(out / "model.json"), "--input", str(out / "feasible.csv")]):
            capsys.readouterr()
            assert invoke(workdir, *command) == 2, command
            assert named in stderr_of(capsys, workdir), command

    def test_non_finite_hems_parameter_exits_two(self, workdir, capsys):
        assert invoke(workdir, "gen-scenarios") == 0
        doc = json.loads((workdir / "hems.json").read_text())
        doc["ewh"]["theta_inl"] = float("nan")
        (workdir / "hems.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert invoke(workdir, "search") == 2
        assert "theta_inl must be a finite number" in stderr_of(capsys, workdir)
        assert not (workdir / "out" / "feasible.csv").exists()

    def test_bool_hems_parameter_exits_two(self, workdir, capsys):
        assert invoke(workdir, "gen-scenarios") == 0
        doc = json.loads((workdir / "hems.json").read_text())
        doc["ewh"]["theta_house"] = True
        (workdir / "hems.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert invoke(workdir, "search") == 2
        assert "theta_house must be a finite number, got True" in stderr_of(capsys, workdir)
        assert not (workdir / "out" / "feasible.csv").exists()

    def test_unknown_hems_key_exits_two(self, workdir, capsys):
        assert invoke(workdir, "gen-scenarios") == 0
        good = (workdir / "hems.json").read_text()
        for edit, key in ((lambda doc: doc.update(grid={}), "'grid'"),
                          (lambda doc: doc["ewh"].update(draw_profile=[1.0] * 12), "'ewh.draw_profile'")):
            doc = json.loads(good)
            edit(doc)
            (workdir / "hems.json").write_text(json.dumps(doc))
            capsys.readouterr()
            assert invoke(workdir, "search") == 2, key
            assert f"unknown key {key}" in stderr_of(capsys, workdir)
            assert not (workdir / "out" / "feasible.csv").exists()

    def test_non_object_hems_file_exits_two(self, workdir, capsys):
        assert invoke(workdir, "gen-scenarios") == 0
        (workdir / "hems.json").write_text("7")
        capsys.readouterr()
        assert invoke(workdir, "search") == 2
        assert "hems.json: the top level must be a JSON object, not int" in stderr_of(capsys, workdir)
        assert not (workdir / "out" / "feasible.csv").exists()

    def test_misnumbered_steps_exit_two(self, workdir):
        marginals = (workdir / "marginals.csv").read_text()
        (workdir / "marginals.csv").write_text(marginals.replace("\n6,", "\n13,"))
        assert invoke(workdir, "gen-scenarios") == 2
        (workdir / "marginals.csv").write_text(marginals)
        assert invoke(workdir, "gen-scenarios") == 0
        draws = (workdir / "draws.csv").read_text()
        for old, new in (("\n3,", "\n2,"), ("\n12,", "\n200,")):
            (workdir / "draws.csv").write_text(draws.replace(old, new))
            assert invoke(workdir, "search") == 2, new

    def test_model_kernel_fields_are_checked(self, workdir, capsys):
        model = {
            "nu": 0.1, "norm_bounds": [[0.0, 1.0]],
            "support_vectors": [[0.5]], "coefficients": [1.0], "radius2_threshold": 0.0, "const_term": 1.0,
        }
        for kernel, message in (({"kind": "rbf", "gamma": 1.0, "gama": 1.0}, "gama"),
                                ({"kind": "rbf"}, "missing field kernel.gamma")):
            model["kernel"] = kernel
            (workdir / "model.json").write_text(json.dumps(model))
            assert invoke(
                workdir, "classify", "--model", str(workdir / "model.json"), "--input", str(workdir / "in.csv")
            ) == 2
            assert message in stderr_of(capsys, workdir)

    def test_classify_non_object_model_exits_two(self, workdir, capsys):
        epso.write_trajectories_csv(workdir / "in.csv", [FlexTrajectory(p_bat=[0.5], p_ewh=[0.0])])
        model = {
            "kernel": 5, "nu": 0.1, "norm_bounds": [[-1.0, 1.0], [0.0, 0.5]],
            "support_vectors": [[0.5, 0.0]], "coefficients": [1.0], "radius2_threshold": 0.5, "const_term": 1.0,
        }
        for text, message in (("5", "model file: the top level must be a JSON object, not int"),
                              (json.dumps(model), "model file: field 'kernel' must be a JSON object, not int")):
            (workdir / "model.json").write_text(text)
            capsys.readouterr()
            assert invoke(
                workdir, "classify", "--model", str(workdir / "model.json"), "--input", str(workdir / "in.csv")
            ) == 2, text
            assert message in stderr_of(capsys, workdir)
            assert not (workdir / "out" / "verdicts.csv").exists()

    def test_classify_non_finite_model_exits_two(self, workdir, capsys):
        for command in ("gen-scenarios", "search", "train"):
            assert invoke(workdir, command) == 0
        out = workdir / "out"
        good = json.loads((out / "model.json").read_text())
        for field, value in (("radius2_threshold", float("nan")), ("const_term", float("inf")),
                             ("coefficients", float("nan")), ("norm_bounds", float("inf"))):
            doc = json.loads(json.dumps(good))
            if field == "coefficients":
                doc[field][0] = value
            elif field == "norm_bounds":
                doc[field][0][1] = value
            else:
                doc[field] = value
            (out / "bad_model.json").write_text(json.dumps(doc))
            capsys.readouterr()
            assert invoke(
                workdir, "classify", "--model", str(out / "bad_model.json"), "--input", str(out / "feasible.csv")
            ) == 2, field
            assert f"{field} holds a non-finite value" in stderr_of(capsys, workdir)
            assert not (out / "verdicts.csv").exists()

    def test_classify_non_number_model_exits_two(self, workdir, capsys):
        # Read as the number 1, a true threshold would call every row feasible.
        model = {
            "kernel": {"kind": "rbf", "gamma": 1.0}, "nu": 0.1, "norm_bounds": [[-1.0, 1.0], [0.0, 0.5]],
            "support_vectors": [[0.5, 0.0]], "coefficients": [True], "radius2_threshold": True, "const_term": 1.0,
        }
        (workdir / "model.json").write_text(json.dumps(model))
        epso.write_trajectories_csv(workdir / "in.csv", [FlexTrajectory(p_bat=[0.5], p_ewh=[0.0])])
        out = workdir / "verdicts.csv"
        assert invoke(
            workdir, "classify", "--model", str(workdir / "model.json"), "--input", str(workdir / "in.csv"),
            "--verdicts", str(out),
        ) == 2
        assert "holds a bool, not a number" in stderr_of(capsys, workdir)
        assert not out.exists()

    def test_classify_dimension_mismatch_exits_two(self, workdir):
        for command in ("gen-scenarios", "search", "train"):
            assert invoke(workdir, command) == 0
        out = workdir / "out"
        wrong = [FlexTrajectory(p_bat=np.zeros(5), p_ewh=np.zeros(5))]
        epso.write_trajectories_csv(out / "wrong.csv", wrong)
        assert invoke(
            workdir, "classify", "--model", str(out / "model.json"), "--input", str(out / "wrong.csv")
        ) == 2

    def test_classify_malformed_input_exits_two(self, workdir):
        for command in ("gen-scenarios", "search", "train"):
            assert invoke(workdir, command) == 0
        out = workdir / "out"
        rows = (out / "feasible.csv").read_text().splitlines()[:3]
        cells = rows[2].split(",")
        bad_rows = {
            bad: ",".join(cells[:3] + [bad] + cells[4:]) for bad in ("nan", "inf", "-inf")
        }
        bad_rows["ragged"] = ",".join(cells[:-2] + cells[-1:])
        bad_rows["fractional fitness"] = ",".join(cells[:-1] + ["1.5"])
        bad_rows["comment"] = "#" + rows[2]  # a comment-aware parser would drop this row
        for name, bad in bad_rows.items():
            (out / "bad.csv").write_text("\n".join(rows[:2] + [bad]) + "\n")
            assert invoke(
                workdir, "classify", "--model", str(out / "model.json"), "--input", str(out / "bad.csv")
            ) == 2, name

    def test_non_finite_draw_profile_exits_two(self, workdir):
        assert invoke(workdir, "gen-scenarios") == 0
        hems.write_draw_profile_csv(workdir / "draws.csv", np.r_[np.full(11, 1.0), np.nan])
        assert invoke(workdir, "search") == 2

    def test_non_finite_marginals_exit_two(self, workdir):
        lines = (workdir / "marginals.csv").read_text().splitlines()
        for column, bad in ((1, "nan"), (2, "nan"), (2, "inf")):
            cells = lines[3].split(",")
            cells[column] = bad
            patched = lines[:3] + [",".join(cells)] + lines[4:]
            (workdir / "marginals.csv").write_text("\n".join(patched) + "\n")
            assert invoke(workdir, "gen-scenarios") == 2, (column, bad)

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


class TestColdStart:
    # scipy is the largest import of the package, and only gen-scenarios needs
    # it. A fresh interpreter is the only place to see that: this test process
    # has already imported scipy.special through tests/conftest.py.
    SCRIPT = """
import shutil, sys
from pathlib import Path
from hemsflex import cli

repo, out = Path(sys.argv[1]), Path(sys.argv[2])
for name in ("scenarios.csv", "feasible.csv"):
    shutil.copy(repo / "out" / "small" / name, out / name)
args = ["--config", str(repo / "data" / "config_small.json"), "--out", str(out)]
assert "scipy" not in sys.modules, "import"
for command in (["search"], ["train"], ["classify", "--model", str(out / "model.json"),
                "--input", str(out / "feasible.csv")], ["validate"]):
    assert cli.main(args + command) == 0, command
    assert "scipy" not in sys.modules, command
assert cli.main(args + ["gen-scenarios"]) == 0
assert "scipy" in sys.modules
"""

    def test_only_gen_scenarios_imports_scipy(self, tmp_path):
        repo = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        run = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(repo), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr


class TestWindowParsing:
    """The window's form is parsed once, at load, by `analysis.window_steps`;
    whether it ends within the horizon is checked by `analysis.validate`."""

    @staticmethod
    def validate_on_horizon(window, horizon):
        """`analysis.validate` with the window resolved at 15-minute steps,
        over a horizon of flat scenarios and no feasible set."""
        settings = analysis.ValidateConfig(dt_hours=0.25, infeasible_seed=0, baseline_seed=0, window=window)
        hems_cfg = hems.HemsConfig.from_json(Path(__file__).resolve().parent.parent / "data" / "hems.json")
        analysis.validate([], scenarios.ScenarioSet(np.zeros((2, horizon))), hems_cfg, settings, 0.9)

    def test_clock_window(self):
        assert analysis.window_steps("09:00-13:00", 0.25) == (36, 52)

    def test_sixteen_steps_for_reference_window(self):
        start, stop = analysis.window_steps("09:00-13:00", 0.25)
        assert stop - start == 16

    def test_index_window(self):
        assert analysis.window_steps([4, 8], 0.25) == (4, 8)

    def test_misaligned_window_rejected(self):
        with pytest.raises(ValueError):
            analysis.window_steps("09:10-13:00", 0.25)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=re.escape("window [0, 200) outside horizon 96")):
            self.validate_on_horizon([0, 200], 96)

    def test_window_may_end_at_midnight(self):
        assert analysis.window_steps("20:00-24:00", 0.25) == (80, 96)

    def test_horizon_is_checked_only_with_a_horizon(self):
        assert analysis.window_steps("09:00-13:00", 0.25) == (36, 52)
        with pytest.raises(ValueError, match="outside horizon 48"):
            self.validate_on_horizon("09:00-13:00", 48)


class TestValidateDefaults:
    """`ValidateConfig` owns the `validate` defaults, but the benchmark's
    `perfbench/run.py:gate_validate` restates them from the raw section; the
    two must agree, or the gate fails a correct run."""

    @pytest.mark.parametrize("name", ["config_small.json", "config_reference.json", "empty validate"])
    def test_parsed_section_matches_the_benchmark_gate(self, tmp_path, name):
        data = Path(__file__).resolve().parent.parent / "data"
        path = data / name
        if name == "empty validate":
            doc = json.loads((data / "config_small.json").read_text())
            doc["paths"] = {key: str(data / value) for key, value in doc["paths"].items()}
            doc["validate"] = {}
            path = tmp_path / "config.json"
            path.write_text(json.dumps(doc))
        cfg = cli.RunConfig.load(path)
        # gate_validate's expressions, on the raw section.
        sweep = len(cfg.validate.get("sweep_kernels", [None] * 3)) * len(cfg.validate.get("sweep_nus", [0] * 4))
        assert len(cfg.validation.sweep) == sweep
        assert cfg.validation.infeasible_count == int(cfg.validate.get("infeasible_count", 1000))
        for feasible in (0, 1, 2, 100, 1000):
            expected = int(cfg.validate.get("baseline_count", max(2, feasible)))
            assert cfg.validation.baseline_size(feasible) == expected
        if name == "empty validate":
            assert (len(cfg.validation.sweep), cfg.validation.infeasible_count) == (3 * 4, 1000)
            assert cfg.validation.window is None


class TestDegenerateKernels:
    """`train` and `validate` exit 2, naming the kernel, where a kernel gives
    a model that is not finite or scores every training row alike."""

    KERNELS = [{"kind": "poly", "gamma": 1e300}, {"kind": "sigmoid", "gamma": 1e6}, {"kind": "sigmoid", "coef0": 1e6}]

    @pytest.fixture
    def offered(self, workdir):
        rng = np.random.default_rng(40)
        trajectories = [FlexTrajectory(rng.uniform(-1.5, 1.5, 12), np.where(rng.random(12) < 0.3, 0.5, 0.0))
                        for _ in range(30)]
        (workdir / "out").mkdir()
        epso.write_trajectories_csv(workdir / "out" / "feasible.csv", trajectories, [14] * 30)
        return workdir

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_train_exits_two(self, offered, capsys, kernel):
        config = json.loads((offered / "config.json").read_text())
        config["svdd"]["kernel"] = kernel
        (offered / "config.json").write_text(json.dumps(config))
        # The poly kernel overflows on purpose here.
        with np.errstate(over="ignore"):
            assert invoke(offered, "train") == 2
        assert f"kind='{kernel['kind']}'" in stderr_of(capsys, offered)
        assert not (offered / "out" / "model.json").exists()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_validate_exits_two(self, offered, capsys, kernel):
        assert invoke(offered, "gen-scenarios") == 0
        config = json.loads((offered / "config.json").read_text())
        config["validate"]["sweep_kernels"] = [{"kind": "rbf", "gamma": 0.5}, kernel]
        (offered / "config.json").write_text(json.dumps(config))
        capsys.readouterr()
        with np.errstate(over="ignore"):
            assert invoke(offered, "validate") == 2
        assert f"kind='{kernel['kind']}'" in stderr_of(capsys, offered)
        # The failing fit comes before any file is written.
        for name in ("infeasible.csv", "confusion.csv", "baseline.csv", "validation.json"):
            assert not (offered / "out" / name).exists(), name

    def test_invalid_config_json_names_the_file(self, workdir, capsys):
        (workdir / "config.json").write_text('{"seed": ')
        assert invoke(workdir, "gen-scenarios") == 2
        assert "config.json is not valid JSON" in stderr_of(capsys, workdir)
