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
import math
import numbers
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, epso, hems, scenarios, svdd

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
_VALIDATE_KEYS = {"window", "sweep_kernels", "sweep_nus", "infeasible_count", "baseline_count"}
# Least value of each validate count: the PCA diversity report needs two
# baseline members.
_VALIDATE_COUNT_MIN = {"infeasible_count": 1, "baseline_count": 2}


def _check_keys(where: str, doc, known: set[str]) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _build(where: str, cls, doc, **derived):
    """`cls` from a config object whose keys are its fields, less the ones
    derived here: a stage seed always derives from the master seed."""
    _check_keys(where, doc, {f.name for f in fields(cls)} - set(derived))
    try:
        return cls(**doc, **derived)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def stage_seed(master: int, stage: int) -> int:
    """Derived integer seed for one pipeline stage."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=(stage,)).generate_state(1)[0])


@dataclass
class RunConfig:
    """Parsed pipeline configuration; paths are resolved against the config
    file location so experiments stay relocatable. Each stage section is
    parsed once, at load, into the dataclass that owns its keys and defaults;
    `sweep` holds the validate sweep's (kernel, training) pairs, kernel-major."""

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
    sweep: list[tuple[svdd.KernelSpec, svdd.TrainingConfig]]
    validate: dict

    @classmethod
    def load(cls, path, seed_override=None, out_override=None) -> "RunConfig":
        path = Path(path)
        with open(path) as fh:
            doc = json.load(fh)
        base = path.parent
        _check_keys(str(path), doc, _TOP_KEYS)
        paths, validate = doc.get("paths", {}), doc.get("validate", {})
        _check_keys(f"{path}: paths", paths, _PATH_KEYS)
        _check_keys(f"{path}: validate", validate, _VALIDATE_KEYS)
        for key in ("sweep_kernels", "sweep_nus"):
            if key not in validate:
                continue
            if not isinstance(validate[key], list):
                raise ValueError(f"{path}: validate.{key} must be a JSON list, got {validate[key]!r}")
            if not validate[key]:
                raise ValueError(f"{path}: validate.{key} must not be empty")
        for key, least in _VALIDATE_COUNT_MIN.items():
            count = validate.get(key, least)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < least:
                raise ValueError(f"{path}: validate.{key} must be an integer of at least {least}, got {count!r}")
        if "marginals" not in paths or "hems" not in paths:
            raise ValueError(f"{path}: paths.marginals and paths.hems are required")
        named_paths = [("out_dir", doc.get("out_dir", "out")), *((f"paths.{k}", v) for k, v in paths.items())]
        for name, value in named_paths:
            if not isinstance(value, str):
                raise ValueError(f"{path}: {name} must be a JSON string, got {value!r}")
        dt_hours = doc.get("dt_hours", 0.25)
        is_number = isinstance(dt_hours, (int, float)) and not isinstance(dt_hours, bool)
        if not (is_number and math.isfinite(dt_hours) and dt_hours > 0):
            raise ValueError(f"{path}: dt_hours must be a positive finite number, got {dt_hours!r}")
        if validate.get("window") is not None:
            try:
                window_steps(validate["window"], dt_hours)
            except ValueError as exc:
                raise ValueError(f"{path}: validate: {exc}") from exc
        seed = seed_override if seed_override is not None else doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"{path}: seed must be a non-negative integer, got {seed!r}")
        svdd_doc = doc.get("svdd", {})
        kernel_doc = svdd_doc.pop("kernel", {}) if isinstance(svdd_doc, dict) else {}
        training = _build(f"{path}: svdd", svdd.TrainingConfig, svdd_doc)
        sweep_kernels = [
            _build(f"{path}: validate.sweep_kernels[{i}]", svdd.KernelSpec, kernel)
            for i, kernel in enumerate(
                validate.get("sweep_kernels", [{"kind": kind} for kind in svdd.KERNEL_KINDS])
            )
        ]
        sweep_training = [
            _build(f"{path}: validate.sweep_nus[{i}]", svdd.TrainingConfig, {"nu": nu})
            for i, nu in enumerate(validate.get("sweep_nus", [0.01, 0.1, 0.15, 0.2]))
        ]
        return cls(
            dt_hours=dt_hours,
            seed=seed,
            out_dir=Path(out_override) if out_override else base / doc.get("out_dir", "out"),
            marginals_path=base / paths["marginals"],
            hems_path=base / paths["hems"],
            draws_path=(base / paths["draws"]) if "draws" in paths else None,
            copula=_build(
                f"{path}: copula", scenarios.CopulaConfig, doc.get("copula", {}),
                seed=stage_seed(seed, _STAGE_SCENARIOS),
            ),
            epso=_build(
                f"{path}: epso", epso.EpsoConfig, doc.get("epso", {}), seed=stage_seed(seed, _STAGE_SEARCH)
            ),
            kernel=_build(f"{path}: svdd.kernel", svdd.KernelSpec, kernel_doc),
            training=training,
            sweep=[(k, t) for k in sweep_kernels for t in sweep_training],
            validate=validate,
        )

    def hems_config(self) -> hems.HemsConfig:
        draws = hems.read_draw_profile_csv(self.draws_path) if self.draws_path else None
        return hems.HemsConfig.from_json(self.hems_path, draw_profile=draws)

    def epso_config(self) -> epso.EpsoConfig:
        """The swarm settings parsed at load: the same object as `epso`."""
        return self.epso


def window_steps(spec, dt_hours: float) -> tuple[int, int]:
    """Window as [start_step, stop_step) from either step indices or a
    clock-time span like "09:00-13:00" over a day starting at 00:00, with
    clock times up to 24:00 that fall on step boundaries. The horizon is not
    checked here (see `parse_window`)."""
    form_error = ValueError(f"window {spec!r} is neither [start, stop] nor HH:MM-HH:MM")
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in spec):
            raise form_error
        start, stop = int(spec[0]), int(spec[1])
    elif isinstance(spec, str):
        try:
            lo, hi = spec.split("-")
            lo_h, lo_m = (int(x) for x in lo.split(":"))
            hi_h, hi_m = (int(x) for x in hi.split(":"))
        except ValueError as exc:
            raise form_error from exc
        for hour, minute in ((lo_h, lo_m), (hi_h, hi_m)):
            if not (0 <= minute < 60 and 0 <= hour * 60 + minute <= 24 * 60):
                raise ValueError(f"window {spec!r}: clock times must lie in 00:00-24:00")
        steps_per_hour = 1.0 / dt_hours
        start = (lo_h + lo_m / 60.0) * steps_per_hour
        stop = (hi_h + hi_m / 60.0) * steps_per_hour
        if abs(start - round(start)) > 1e-9 or abs(stop - round(stop)) > 1e-9:
            raise ValueError(f"window {spec!r} does not align with {dt_hours} h steps")
        start, stop = int(round(start)), int(round(stop))
    else:
        raise form_error
    if not 0 <= start < stop:
        raise ValueError(f"window [{start}, {stop}) is empty or starts before step 0")
    return start, stop


def parse_window(spec, dt_hours: float, horizon: int) -> tuple[int, int]:
    """`window_steps` of the spec, which must also end within the horizon."""
    start, stop = window_steps(spec, dt_hours)
    if stop > horizon:
        raise ValueError(f"window [{start}, {stop}) outside horizon {horizon}")
    return start, stop


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
    hems_cfg = cfg.hems_config()

    sample = analysis.generate_infeasible_set(
        count=cfg.validate.get("infeasible_count", 1000),
        cfg=hems_cfg,
        scenarios=scenario_set,
        seed=stage_seed(cfg.seed, _STAGE_INFEASIBLE),
        dt=cfg.dt_hours,
        tau_scen=cfg.epso.tau_scen,
    )
    infeasible = sample.trajectories
    epso.write_trajectories_csv(cfg.out_dir / "infeasible.csv", infeasible)

    window_doc = cfg.validate.get("window")
    if window_doc is not None:
        start, stop = parse_window(window_doc, cfg.dt_hours, scenario_set.horizon)
        feas_features = [t.window(start, stop) for t in feasible]
        infeas_features = [t.window(start, stop) for t in infeasible]
        window_info = {"start_step": start, "stop_step": stop, "steps": stop - start}
    else:
        feas_features, infeas_features = feasible, infeasible
        window_info = None

    rows = [
        analysis.confusion_table(
            svdd.fit_trajectories(feas_features, kernel, training), feas_features, infeas_features
        )
        for kernel, training in cfg.sweep
    ]

    with open(cfg.out_dir / "confusion.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "kernel", "gamma", "nu",
                "feasible_correct", "feasible_incorrect", "feasible_error_pct",
                "infeasible_correct", "infeasible_incorrect", "infeasible_error_pct",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    r.kernel_kind, f"{r.gamma:g}", f"{r.nu:g}",
                    r.feasible_correct, r.feasible_incorrect, f"{r.feasible_error_pct:.2f}",
                    r.infeasible_correct, r.infeasible_incorrect, f"{r.infeasible_error_pct:.2f}",
                ]
            )

    baseline = analysis.semi_random_baseline(
        count=cfg.validate.get("baseline_count", max(2, len(feasible))),
        cfg=hems_cfg,
        scenario=scenario_set.values[0],
        seed=stage_seed(cfg.seed, _STAGE_BASELINE),
        dt=cfg.dt_hours,
    ).trajectories
    epso.write_trajectories_csv(cfg.out_dir / "baseline.csv", baseline)

    search_div = analysis.pca_diversity(feasible)
    baseline_div = analysis.pca_diversity(baseline)
    summary = {
        "window": window_info,
        "diversity": {
            "search_set": {
                "n_components_50": search_div.n_components_50,
                "n_components_80": search_div.n_components_80,
                "degenerate": search_div.degenerate,
            },
            "baseline": {
                "n_components_50": baseline_div.n_components_50,
                "n_components_80": baseline_div.n_components_80,
                "degenerate": baseline_div.degenerate,
            },
        },
        "infeasible_sampling": {"attempts": sample.attempts, "acceptance_rate": sample.acceptance_rate},
        "sweep": [
            {
                "kernel": r.kernel_kind,
                "gamma": r.gamma,
                "nu": r.nu,
                "feasible_error_pct": r.feasible_error_pct,
                "infeasible_error_pct": r.infeasible_error_pct,
            }
            for r in rows
        ],
    }
    (cfg.out_dir / "validation.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"validated {len(rows)} configurations; diversity components "
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
