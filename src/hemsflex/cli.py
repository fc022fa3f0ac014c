"""Pipeline driver: scenario generation, trajectory search, boundary-model
training, classification, and validation reports, glued together by one JSON
config. Every stochastic stage derives its stream from the master seed, so a
rerun with the same config produces byte-identical artifacts.

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, epso, hems, scenarios, svdd
from ._inputs import build, check_keys, finite, integer, json_object

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Stage tags for deriving per-stage RNG streams from the master seed.
_STAGE_SCENARIOS = 0
_STAGE_SEARCH = 1
_STAGE_INFEASIBLE = 2
_STAGE_BASELINE = 3


# Keys of the config objects no dataclass owns. Any other key is a typo that
# would silently run the default, so it is an input error.
_TOP_KEYS = {"dt_hours", "seed", "out_dir", "paths", "copula", "epso", "svdd", "validate"}
_PATH_KEYS = {"marginals", "hems", "draws"}


def stage_seed(master: int, stage: int) -> int:
    """Derived integer seed for one pipeline stage."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=(stage,)).generate_state(1)[0])


@dataclass
class RunConfig:
    """Parsed pipeline configuration; paths are resolved against the config
    file location so experiments stay relocatable. Each stage section is
    parsed once, at load, into the dataclass that owns its keys and defaults."""

    dt_hours: float
    seed: int
    out_dir: Path
    marginals_path: Path
    hems_path: Path
    draws_path: Path | None
    copula: scenarios.CopulaConfig
    epso: epso.EpsoConfig
    kernel: svdd.KernelSpec
    training: svdd.TrainingConfig
    validation: analysis.ValidateConfig
    # The `validate` section as the file holds it. Only the benchmark's
    # `perfbench/run.py:gate_validate` reads it, restating the defaults of
    # `validation`; it goes once that gate reads `validation` instead.
    validate: dict

    @classmethod
    def load(cls, path, seed_override=None, out_override=None) -> "RunConfig":
        path = Path(path)
        doc = json_object(str(path), path.read_text())
        base = path.parent
        check_keys(str(path), doc, _TOP_KEYS)
        paths, validate = doc.get("paths", {}), doc.get("validate", {})
        check_keys(f"{path}: paths", paths, _PATH_KEYS)
        if "marginals" not in paths or "hems" not in paths:
            raise ValueError(f"{path}: paths.marginals and paths.hems are required")
        named_paths = [("out_dir", doc.get("out_dir", "out")), *((f"paths.{k}", v) for k, v in paths.items())]
        for name, value in named_paths:
            if not isinstance(value, str):
                raise ValueError(f"{path}: {name} must be a JSON string, got {value!r}")
        dt_hours = finite(f"{path}: dt_hours", doc.get("dt_hours", 0.25))
        if not dt_hours > 0:
            raise ValueError(f"{path}: dt_hours must be positive, got {dt_hours!r}")
        seed = integer(f"{path}: seed", seed_override if seed_override is not None else doc.get("seed", 0), 0)
        svdd_doc = doc.get("svdd", {})
        kernel_doc = svdd_doc.pop("kernel", {}) if isinstance(svdd_doc, dict) else {}
        training = build(f"{path}: svdd", svdd.TrainingConfig, svdd_doc)
        return cls(
            dt_hours=dt_hours,
            seed=seed,
            out_dir=Path(out_override) if out_override else base / doc.get("out_dir", "out"),
            marginals_path=base / paths["marginals"],
            hems_path=base / paths["hems"],
            draws_path=(base / paths["draws"]) if "draws" in paths else None,
            copula=build(
                f"{path}: copula", scenarios.CopulaConfig, doc.get("copula", {}),
                seed=stage_seed(seed, _STAGE_SCENARIOS),
            ),
            epso=build(
                f"{path}: epso", epso.EpsoConfig, doc.get("epso", {}), seed=stage_seed(seed, _STAGE_SEARCH)
            ),
            kernel=build(f"{path}: svdd.kernel", svdd.KernelSpec, kernel_doc),
            training=training,
            validation=build(
                f"{path}: validate", analysis.ValidateConfig, validate, dt_hours=dt_hours,
                infeasible_seed=stage_seed(seed, _STAGE_INFEASIBLE), baseline_seed=stage_seed(seed, _STAGE_BASELINE),
            ),
            validate=validate,
        )

    def hems_config(self) -> hems.HemsConfig:
        draws = hems.read_draw_profile_csv(self.draws_path) if self.draws_path else None
        return hems.HemsConfig.from_json(self.hems_path, draw_profile=draws)

    def epso_config(self) -> epso.EpsoConfig:
        """The swarm settings parsed at load: the same object as `epso`,
        kept for `perfbench/run.py:gate_validate`."""
        return self.epso


def cmd_gen_scenarios(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    marginals = scenarios.read_marginals_csv(cfg.marginals_path)
    scenario_set = scenarios.generate_scenarios(marginals, cfg.copula)
    scenario_set.write_csv(cfg.out_dir / "scenarios.csv")
    meta = {
        "horizon": scenario_set.horizon,
        "count": scenario_set.count,
        "nu_cov": cfg.copula.nu_cov,
        "seed": cfg.copula.seed,
        "master_seed": cfg.seed,
    }
    (cfg.out_dir / "scenarios_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {scenario_set.count} x {scenario_set.horizon} scenarios to {cfg.out_dir / 'scenarios.csv'}")
    return EXIT_OK


def cmd_search(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    scenario_set = scenarios.ScenarioSet.read_csv(cfg.out_dir / "scenarios.csv")
    hems_cfg = cfg.hems_config()
    log_path = cfg.out_dir / "search_log.jsonl"
    with open(log_path, "w") as log_fh:

        def sink(record: dict) -> None:
            log_fh.write(json.dumps(record) + "\n")

        result = epso.run(cfg.epso, scenario_set, hems_cfg, cfg.dt_hours, log_sink=sink)
        log_fh.write(
            json.dumps(
                {
                    "event": "summary",
                    "completed": result.completed,
                    "feasible": len(result.feasible),
                    "iterations": result.iterations,
                    "elapsed_s": result.elapsed_s,
                    "warning": result.warning,
                }
            )
            + "\n"
        )
    epso.write_trajectories_csv(
        cfg.out_dir / "feasible.csv",
        result.feasible.trajectories,
        result.feasible.fitnesses,
        horizon=scenario_set.horizon,
    )
    print(
        f"collected {len(result.feasible)} robust trajectories in {result.iterations} "
        f"iterations ({result.elapsed_s:.1f} s)"
    )
    if result.warning:
        print(f"warning: {result.warning}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    trajectories, _ = epso.read_trajectories_csv(cfg.out_dir / "feasible.csv")
    model = svdd.fit_trajectories(trajectories, cfg.kernel, cfg.training)
    svdd.save_model(model, cfg.out_dir / "model.json")
    print(
        f"trained {model.kernel.kind} boundary: {model.n_support} support vectors, "
        f"radius^2 threshold {model.radius2_threshold:.6f}"
    )
    return EXIT_OK


def cmd_classify(cfg: RunConfig, model_path, input_path, output_path) -> int:
    model = svdd.load_model(model_path)
    trajectories, _ = epso.read_trajectories_csv(input_path)
    if trajectories and 2 * trajectories[0].horizon != model.dimension:
        raise ValueError(
            f"input trajectories have {2 * trajectories[0].horizon} coordinates, "
            f"model expects {model.dimension}"
        )
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    r2 = svdd.score_trajectories(model, trajectories)
    # The bytes of a csv writer, one string per row, as in epso.write_trajectories_csv.
    with open(output_path, "w", newline="") as fh:
        fh.write("verdict,r2\r\n")
        fh.writelines(
            f"{'feasible' if inside else 'infeasible'},{value!r}\r\n"
            for inside, value in zip(svdd.within_boundary(model, r2).tolist(), r2.tolist())
        )
    print(f"classified {len(trajectories)} trajectories into {output_path}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    scenario_set = scenarios.ScenarioSet.read_csv(cfg.out_dir / "scenarios.csv")
    feasible, _ = epso.read_trajectories_csv(cfg.out_dir / "feasible.csv")
    report = analysis.validate(feasible, scenario_set, cfg.hems_config(), cfg.validation, cfg.epso.tau_scen)

    sample, search_div, baseline_div = report.infeasible, report.search_diversity, report.baseline_diversity
    epso.write_trajectories_csv(cfg.out_dir / "infeasible.csv", sample.trajectories)
    with open(cfg.out_dir / "confusion.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(
            [["kernel", "gamma", "nu", "feasible_correct", "feasible_incorrect", "feasible_error_pct",
              "infeasible_correct", "infeasible_incorrect", "infeasible_error_pct"]]
            + [[r.kernel_kind, f"{r.gamma:g}", f"{r.nu:g}", r.feasible_correct, r.feasible_incorrect,
                f"{r.feasible_error_pct:.2f}", r.infeasible_correct, r.infeasible_incorrect,
                f"{r.infeasible_error_pct:.2f}"] for r in report.rows]
        )
    epso.write_trajectories_csv(cfg.out_dir / "baseline.csv", report.baseline)
    window = cfg.validation.window
    summary = {
        "window": None if window is None else {"start_step": window[0], "stop_step": window[1],
                                               "steps": window[1] - window[0]},
        "diversity": {
            name: {"n_components_50": div.n_components_50, "n_components_80": div.n_components_80,
                   "degenerate": div.degenerate}
            for name, div in (("search_set", search_div), ("baseline", baseline_div))
        },
        "infeasible_sampling": {"attempts": sample.attempts, "acceptance_rate": sample.acceptance_rate},
        "sweep": [
            {"kernel": r.kernel_kind, "gamma": r.gamma, "nu": r.nu,
             "feasible_error_pct": r.feasible_error_pct, "infeasible_error_pct": r.infeasible_error_pct}
            for r in report.rows
        ],
    }
    (cfg.out_dir / "validation.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"validated {len(report.rows)} configurations; diversity components "
        f"(50%/80%): search {search_div.n_components_50}/{search_div.n_components_80}, "
        f"baseline {baseline_div.n_components_50}/{baseline_div.n_components_80}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemsflex",
        description="Forecast multi-period HEMS flexibility: scenario generation, "
        "robust trajectory search, boundary-model training and validation.",
    )
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility and ignored: the search is single-threaded",
    )
    parser.add_argument("--out", default=None, help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-scenarios", help="generate the net-load scenario matrix")
    sub.add_parser("search", help="search for robustly feasible trajectories")
    sub.add_parser("train", help="train the boundary model on the feasible set")
    classify = sub.add_parser("classify", help="classify trajectories with a trained model")
    classify.add_argument("--model", required=True, help="model JSON path")
    classify.add_argument("--input", required=True, help="trajectory CSV to classify")
    classify.add_argument("--verdicts", default=None, help="output CSV (default out/verdicts.csv)")
    sub.add_parser("validate", help="confusion sweep and diversity report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "gen-scenarios":
            return cmd_gen_scenarios(cfg)
        if args.command == "search":
            return cmd_search(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "classify":
            verdicts = args.verdicts if args.verdicts else cfg.out_dir / "verdicts.csv"
            return cmd_classify(cfg, args.model, args.input, verdicts)
        if args.command == "validate":
            return cmd_validate(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except (svdd.ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
