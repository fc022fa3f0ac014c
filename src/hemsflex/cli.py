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

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Stage tags for deriving per-stage RNG streams from the master seed.
_STAGE_SCENARIOS = 0
_STAGE_SEARCH = 1
_STAGE_INFEASIBLE = 2
_STAGE_BASELINE = 3


def stage_seed(master: int, stage: int) -> int:
    """Derived integer seed for one pipeline stage."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=(stage,)).generate_state(1)[0])


@dataclass
class RunConfig:
    """Parsed pipeline configuration; paths are resolved against the config
    file location so experiments stay relocatable."""

    dt_hours: float
    seed: int
    out_dir: Path
    marginals_path: Path
    hems_path: Path
    draws_path: Path | None
    copula: dict
    epso: dict
    svdd: dict
    validate: dict

    @classmethod
    def load(cls, path, seed_override=None, out_override=None) -> "RunConfig":
        path = Path(path)
        with open(path) as fh:
            doc = json.load(fh)
        base = path.parent
        paths = doc.get("paths", {})
        if "marginals" not in paths or "hems" not in paths:
            raise ValueError(f"{path}: paths.marginals and paths.hems are required")
        out_dir = Path(out_override) if out_override else base / doc.get("out_dir", "out")
        return cls(
            dt_hours=float(doc.get("dt_hours", 0.25)),
            seed=int(seed_override if seed_override is not None else doc.get("seed", 0)),
            out_dir=out_dir,
            marginals_path=base / paths["marginals"],
            hems_path=base / paths["hems"],
            draws_path=(base / paths["draws"]) if "draws" in paths else None,
            copula=doc.get("copula", {}),
            epso=doc.get("epso", {}),
            svdd=doc.get("svdd", {}),
            validate=doc.get("validate", {}),
        )

    def hems_config(self) -> hems.HemsConfig:
        draws = hems.read_draw_profile_csv(self.draws_path) if self.draws_path else None
        return hems.HemsConfig.from_json(self.hems_path, draw_profile=draws)

    def epso_config(self) -> epso.EpsoConfig:
        fields = dict(self.epso)
        fields["seed"] = stage_seed(self.seed, _STAGE_SEARCH)
        return epso.EpsoConfig(**fields)

    def kernel_spec(self, doc=None) -> svdd.KernelSpec:
        doc = doc if doc is not None else self.svdd.get("kernel", {})
        return svdd.KernelSpec(
            kind=doc.get("kind", "sigmoid"),
            gamma=float(doc.get("gamma", 0.05)),
            degree=int(doc.get("degree", 3)),
            coef0=float(doc.get("coef0", 0.0)),
        )

    def training_config(self, nu=None) -> svdd.TrainingConfig:
        return svdd.TrainingConfig(
            nu=float(nu if nu is not None else self.svdd.get("nu", 0.15)),
            tolerance=float(self.svdd.get("tolerance", 1e-6)),
            max_passes=int(self.svdd.get("max_passes", 100_000)),
        )


def parse_window(spec, dt_hours: float, horizon: int) -> tuple[int, int]:
    """Window as [start_step, stop_step) from either step indices or a
    clock-time span like "09:00-13:00" over a day starting at 00:00."""
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        start, stop = int(spec[0]), int(spec[1])
    elif isinstance(spec, str):
        try:
            lo, hi = spec.split("-")
            lo_h, lo_m = (int(x) for x in lo.split(":"))
            hi_h, hi_m = (int(x) for x in hi.split(":"))
        except ValueError as exc:
            raise ValueError(f"window {spec!r} is neither [start, stop] nor HH:MM-HH:MM") from exc
        steps_per_hour = 1.0 / dt_hours
        start = (lo_h + lo_m / 60.0) * steps_per_hour
        stop = (hi_h + hi_m / 60.0) * steps_per_hour
        if abs(start - round(start)) > 1e-9 or abs(stop - round(stop)) > 1e-9:
            raise ValueError(f"window {spec!r} does not align with {dt_hours} h steps")
        start, stop = int(round(start)), int(round(stop))
    else:
        raise ValueError(f"window {spec!r} is neither [start, stop] nor HH:MM-HH:MM")
    if not 0 <= start < stop <= horizon:
        raise ValueError(f"window [{start}, {stop}) outside horizon {horizon}")
    return start, stop


def cmd_gen_scenarios(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    marginals = scenarios.read_marginals_csv(cfg.marginals_path)
    copula_cfg = scenarios.CopulaConfig(
        horizon=len(marginals),
        count=int(cfg.copula.get("count", 100)),
        nu_cov=float(cfg.copula.get("nu_cov", 4.0)),
        seed=stage_seed(cfg.seed, _STAGE_SCENARIOS),
    )
    scenario_set = scenarios.generate_scenarios(marginals, copula_cfg)
    scenario_set.write_csv(cfg.out_dir / "scenarios.csv")
    meta = {
        "horizon": copula_cfg.horizon,
        "count": copula_cfg.count,
        "nu_cov": copula_cfg.nu_cov,
        "seed": copula_cfg.seed,
        "master_seed": cfg.seed,
    }
    (cfg.out_dir / "scenarios_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {copula_cfg.count} x {copula_cfg.horizon} scenarios to {cfg.out_dir / 'scenarios.csv'}")
    return EXIT_OK


def cmd_search(cfg: RunConfig, threads: int) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    scenario_set = scenarios.ScenarioSet.read_csv(cfg.out_dir / "scenarios.csv")
    hems_cfg = cfg.hems_config()
    epso_cfg = cfg.epso_config()
    log_path = cfg.out_dir / "search_log.jsonl"
    with open(log_path, "w") as log_fh:

        def sink(record: dict) -> None:
            log_fh.write(json.dumps(record) + "\n")

        result = epso.run(epso_cfg, scenario_set, hems_cfg, cfg.dt_hours, threads=threads, log_sink=sink)
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
    model = svdd.fit_trajectories(trajectories, cfg.kernel_spec(), cfg.training_config())
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
    with open(output_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["verdict", "r2"])
        for traj in trajectories:
            x = svdd.normalize(traj, model.norm_bounds)
            r2 = svdd.radius_squared(model, x)
            verdict = "feasible" if svdd.classify(model, x) else "infeasible"
            writer.writerow([verdict, repr(r2)])
    print(f"classified {len(trajectories)} trajectories into {output_path}")
    return EXIT_OK


def _windowed_vectors(trajectories, start: int, stop: int) -> list[hems.FlexTrajectory]:
    return [t.window(start, stop) for t in trajectories]


def cmd_validate(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    scenario_set = scenarios.ScenarioSet.read_csv(cfg.out_dir / "scenarios.csv")
    feasible, _ = epso.read_trajectories_csv(cfg.out_dir / "feasible.csv")
    hems_cfg = cfg.hems_config()
    tau_scen = float(cfg.epso.get("tau_scen", 0.9))

    infeasible_path = cfg.out_dir / "infeasible.csv"
    sampling_stats = None
    if infeasible_path.exists():
        infeasible, _ = epso.read_trajectories_csv(infeasible_path)
        if not infeasible:
            raise ValueError(f"{infeasible_path}: empty infeasible set")
    else:
        sample = analysis.generate_infeasible_set(
            count=int(cfg.validate.get("infeasible_count", 1000)),
            cfg=hems_cfg,
            scenarios=scenario_set,
            seed=stage_seed(cfg.seed, _STAGE_INFEASIBLE),
            dt=cfg.dt_hours,
            tau_scen=tau_scen,
        )
        infeasible = sample.trajectories
        sampling_stats = {"attempts": sample.attempts, "acceptance_rate": sample.acceptance_rate}
        epso.write_trajectories_csv(infeasible_path, infeasible)

    window_doc = cfg.validate.get("window")
    if window_doc is not None:
        start, stop = parse_window(window_doc, cfg.dt_hours, scenario_set.horizon)
        feas_features = _windowed_vectors(feasible, start, stop)
        infeas_features = _windowed_vectors(infeasible, start, stop)
        window_info = {"start_step": start, "stop_step": stop, "steps": stop - start}
    else:
        feas_features, infeas_features = feasible, infeasible
        window_info = None

    kernels = cfg.validate.get("sweep_kernels")
    if kernels is None:
        kernels = [
            {"kind": "rbf", "gamma": 0.05},
            {"kind": "poly", "gamma": 0.05},
            {"kind": "sigmoid", "gamma": 0.05},
        ]
    nus = cfg.validate.get("sweep_nus", [0.01, 0.1, 0.15, 0.2])

    rows = []
    for kernel_doc in kernels:
        spec = cfg.kernel_spec(kernel_doc)
        for nu in nus:
            model = svdd.fit_trajectories(feas_features, spec, cfg.training_config(nu=nu))
            report = analysis.confusion_table(model, feas_features, infeas_features)
            rows.append(report)

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

    baseline_path = cfg.out_dir / "baseline.csv"
    baseline_count = int(cfg.validate.get("baseline_count", max(2, len(feasible))))
    if baseline_path.exists():
        baseline, _ = epso.read_trajectories_csv(baseline_path)
    else:
        baseline_set = analysis.semi_random_baseline(
            count=baseline_count,
            cfg=hems_cfg,
            scenario=scenario_set.values[0],
            seed=stage_seed(cfg.seed, _STAGE_BASELINE),
            dt=cfg.dt_hours,
        )
        baseline = baseline_set.trajectories
        epso.write_trajectories_csv(baseline_path, baseline)

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
        "infeasible_sampling": sampling_stats,
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
            return cmd_search(cfg, threads=max(1, args.threads))
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
