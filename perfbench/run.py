"""hemsflex benchmark: the household's day-ahead search, its validation
report, and a third party classifying offers against a shared model.

Run from the repository root:

    python3 perfbench/run.py --workload search-reference --seed 1 --seconds 20 --trace 0

Every workload is one process running one CLI stage call at a time (closed
loop, `--threads 1`, BLAS pinned to one thread) in a child interpreter
(worker.py). The timed stage repeats until `--seconds` have passed and its
fastest call is reported (see main); each workload is sized so that one call
takes under a second and a run holds dozens of them. Before each repetition
the worker pins itself to the CPU that runs a short probe fastest. The outputs
of every repetition must hash the same, and the last repetition's outputs must
pass the workload's correctness gate; each repetition that does not counts as
failed.

Workloads:

- validate-reference: `validate` on the reference config with its three sets
  cut from 1000 to 100 trajectories (0.25-0.45 s a call on a 2-vCPU Xeon KVM
  guest). Its feasible set is the reference instance's search run to a target
  of 100 (about 6 s), made untimed by the first run of any workload in a
  checkout and cached under .perfbench_work/cache, keyed by the package source
  and the inputs. The seed drives validate's own streams (the
  rejection-sampled infeasible set and the baseline chain).
- search-reference: `gen-scenarios`, `search`, `train` on the reference
  instance (96 steps x 100 scenarios, 30 particles, its own seed) with the
  target lowered to 20 trajectories (3 generations, 0.55-0.9 s a call). The
  seed only picks the trajectories the gate re-checks: with the seed driving
  the search, the generations needed vary 2-4x between seeds, which no
  run-to-run bound could absorb.
- classify-stream: `classify` of 2000 seed-drawn candidates (about 0.25 s a
  call) against the fixed reference model in this directory (sigmoid, 192
  dims, 152 support vectors): half are support vectors of the model with a
  small Gaussian perturbation of the battery schedule, half are uniform in
  the power band.

The model file was made with the package CLI on data/config_reference.json:
`gen-scenarios`, `search`, then `train`, copying model.json here.

The last stdout line is the result JSON. With `--trace 0` its metrics are the
end-to-end ones: stage_s (search_s, validate_s, or the classify time of which
classify_traj_per_s is the reciprocal rate), setup_s and peak_rss_mb. With
`--trace 1` they are the per-layer metrics of spans.LAYER_METRICS, taken from
spans around the package's public functions. The line before it holds the
input hashes and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
WORK = ROOT / ".perfbench_work"
MODEL = HERE / "reference_model.json"

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up is timed in this many fresh interpreters, each started on the CPU
# that is quietest at the time; setup_s is their median. The worker's own
# set-up is recorded but not counted.
SETUP_PROBES = 9
# Trajectories the search gate re-checks with the independent oracle.
ORACLE_SAMPLE = 100
# Standard deviation [kW] of the perturbation of near-boundary candidates.
PERTURB_KW = 0.05
# Verdicts this close to the classification threshold are not compared.
VERDICT_BAND = 1e-9
# svdd._BOUNDARY_SLACK, restated so the classify gate stays independent.
BOUNDARY_SLACK = 1e-5

SCALES = {
    "reference": {"config": "config_reference.json", "search_target": 20, "candidates": 2000, "validate_set": 100},
    "small": {"config": "config_small.json", "search_target": 100, "candidates": 2000, "validate_set": None},
}
WORKLOADS = ("validate-reference", "search-reference", "classify-stream")
END_TO_END = {"stage_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAGE_ALIAS = {"search-reference": "search_s", "validate-reference": "validate_s", "classify-stream": "classify_s"}


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Run:
    """Paths and settings of one workload run; rebuilt identically from the
    same arguments, so checks can be re-applied to a finished run."""

    def __init__(self, workload: str, seed: int, scale: str = "reference"):
        self.seed = seed
        self.master = seed % 2**32
        self.scale = SCALES[scale]
        self.dir = WORK / workload
        self.out = self.dir / "out"
        self.config = self.dir / "config.json"

    def config_doc(self) -> dict:
        doc = json.loads((DATA / self.scale["config"]).read_text())
        doc["paths"] = {k: str(DATA / v) for k, v in doc["paths"].items()}
        doc.pop("out_dir", None)
        return doc

    def argv(self, *stage, seed=None) -> list[str]:
        head = ["--config", str(self.config), "--out", str(self.out), "--threads", "1"]
        if seed is not None:
            head += ["--seed", str(seed)]
        return head + list(stage)


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# --- search-reference -------------------------------------------------------


def plan_search(run: Run) -> dict:
    doc = run.config_doc()
    doc["epso"]["target_feasible"] = run.scale["search_target"]
    run.config.write_text(json.dumps(doc, indent=2))
    return {
        "stages": [[s, run.argv(s)] for s in ("gen-scenarios", "search", "train")],
        "timed": "search",
        "keep": [],
        "hash_files": ["scenarios.csv", "feasible.csv", "model.json"],
        "setup_inputs": [["marginals", doc["paths"]["marginals"]]],
        "inputs": [run.config] + [Path(p) for p in doc["paths"].values()],
    }


def search_sample(seed: int, n: int) -> list[int]:
    import numpy as np

    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False))


def gate_search(run: Run) -> list[str]:
    """Target reached; a seed-chosen sample re-scored by the oracle matches
    its recorded fitness and is robust."""
    from hemsflex import analysis, cli, epso, scenarios

    cfg = cli.RunConfig.load(run.config)
    trajectories, fitnesses = epso.read_trajectories_csv(run.out / "feasible.csv")
    failures = []
    if len(trajectories) < cfg.epso_config().target_feasible:
        failures.append(f"search collected {len(trajectories)} trajectories, target {cfg.epso_config().target_feasible}")
    scenario_set = scenarios.ScenarioSet.read_csv(run.out / "scenarios.csv")
    hems_cfg = cfg.hems_config()
    threshold = epso.robust_threshold(scenario_set.count, cfg.epso_config().tau_scen)
    for i in search_sample(run.seed, len(trajectories)):
        oracle = analysis.oracle_check(trajectories[i], scenario_set, hems_cfg, cfg.dt_hours)
        if oracle != fitnesses[i] or oracle < threshold:
            failures.append(f"feasible row {i}: fitness {fitnesses[i]}, oracle {oracle}, threshold {threshold}")
    return failures


# --- validate-reference -----------------------------------------------------


def validate_doc(run: Run) -> dict:
    """The scale's config with the search target and the infeasible and
    baseline set sizes all cut to the scale's validate set size, if it has
    one."""
    doc = run.config_doc()
    size = run.scale["validate_set"]
    if size is not None:
        doc["epso"]["target_feasible"] = size
        doc["validate"].update(infeasible_count=size, baseline_count=size)
    return doc


def reference_feasible_set(run: Run) -> Path:
    """Directory holding scenarios.csv and feasible.csv of the reference
    instance's search, built once per package source and inputs."""
    from hemsflex import cli

    doc = validate_doc(run)
    key = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for path in sorted((SRC / "hemsflex").glob("*.py")) + sorted(Path(p) for p in doc["paths"].values()):
        key.update(path.read_bytes())
    cache = WORK / "cache" / key.hexdigest()[:16]
    if not (cache / "feasible.csv").exists():
        building = cache.with_name(cache.name + ".tmp")
        shutil.rmtree(building, ignore_errors=True)
        building.mkdir(parents=True)
        config = building / "config.json"
        config.write_text(json.dumps(doc, indent=2))
        for stage in ("gen-scenarios", "search"):
            argv = ["--config", str(config), "--out", str(building), "--threads", "1", stage]
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"reference search failed at {stage}")
        shutil.rmtree(cache, ignore_errors=True)
        building.rename(cache)
    return cache


def plan_validate(run: Run) -> dict:
    doc = validate_doc(run)
    run.config.write_text(json.dumps(doc, indent=2))
    source = reference_feasible_set(run)
    run.out.mkdir(parents=True, exist_ok=True)
    keep = ["scenarios.csv", "feasible.csv"]
    for name in keep:
        shutil.copyfile(source / name, run.out / name)
    return {
        "stages": [["validate", run.argv("validate", seed=run.master)]],
        "timed": "validate",
        "keep": keep,
        "hash_files": ["infeasible.csv", "baseline.csv", "confusion.csv", "validation.json"],
        "setup_inputs": [["scenarios", str(run.out / keep[0])], ["trajectories", str(run.out / keep[1])]],
        "inputs": [run.config] + [Path(p) for p in doc["paths"].values()] + [run.out / k for k in keep],
    }


def gate_validate(run: Run) -> list[str]:
    """Every infeasible row fails the oracle's robustness check, every
    baseline row passes the oracle on scenario 0, and each confusion row
    accounts for both sets."""
    from hemsflex import analysis, cli, epso, scenarios

    cfg = cli.RunConfig.load(run.config)
    hems_cfg = cfg.hems_config()
    scenario_set = scenarios.ScenarioSet.read_csv(run.out / "scenarios.csv")
    rows = [scenarios.ScenarioSet(v[None, :]) for v in scenario_set.values]
    threshold = epso.robust_threshold(scenario_set.count, cfg.epso_config().tau_scen)
    feasible, _ = epso.read_trajectories_csv(run.out / "feasible.csv")
    infeasible, _ = epso.read_trajectories_csv(run.out / "infeasible.csv")
    baseline, _ = epso.read_trajectories_csv(run.out / "baseline.csv")
    failures = []

    def robust(traj) -> bool:
        compliant, left = 0, len(rows)
        for row in rows:
            left -= 1
            compliant += analysis.oracle_check(traj, row, hems_cfg, cfg.dt_hours)
            if compliant >= threshold:
                return True
            if compliant + left < threshold:
                return False
        return False

    for i, traj in enumerate(infeasible):
        if robust(traj):
            failures.append(f"infeasible row {i} is robust under the oracle")
    for i, traj in enumerate(baseline):
        if analysis.oracle_check(traj, rows[0], hems_cfg, cfg.dt_hours) != 1:
            failures.append(f"baseline row {i} fails the oracle on scenario 0")
    expected = {
        "infeasible": int(cfg.validate.get("infeasible_count", 1000)),
        "baseline": int(cfg.validate.get("baseline_count", max(2, len(feasible)))),
    }
    for name, got in (("infeasible", len(infeasible)), ("baseline", len(baseline))):
        if got != expected[name]:
            failures.append(f"{name} set has {got} rows, expected {expected[name]}")
    confusion = _read_rows(run.out / "confusion.csv")
    # cli.cmd_validate sweeps three kernels and four nus unless configured.
    sweep = len(cfg.validate.get("sweep_kernels", [None] * 3)) * len(cfg.validate.get("sweep_nus", [0] * 4))
    if len(confusion) != sweep:
        failures.append(f"confusion.csv has {len(confusion)} rows, sweep has {sweep}")
    for row in confusion:
        if int(row[3]) + int(row[4]) != len(feasible) or int(row[6]) + int(row[7]) != len(infeasible):
            failures.append(f"confusion row {row[:3]} does not sum to the set sizes")
    return failures


# --- classify-stream --------------------------------------------------------


def candidates(run: Run):
    """Seed-drawn candidate matrix, one [p_bat | p_ewh] row per offer."""
    import numpy as np

    from hemsflex import cli, svdd

    model = svdd.load_model(MODEL)
    hems_cfg = cli.RunConfig.load(run.config).hems_config()
    bat, p_nom = hems_cfg.battery, hems_cfg.ewh.p_nom
    lo, hi = model.norm_bounds[:, 0], model.norm_bounds[:, 1]
    members = lo + model.support_vectors * (hi - lo)
    horizon = model.dimension // 2
    rng = np.random.default_rng(run.master)
    count = run.scale["candidates"]
    near = members[rng.integers(model.n_support, size=count // 2)].copy()
    near[:, :horizon] = np.clip(
        near[:, :horizon] + rng.normal(0.0, PERTURB_KW, (near.shape[0], horizon)),
        -bat.p_discharge_max,
        bat.p_charge_max,
    )
    far = np.empty((count - near.shape[0], model.dimension))
    far[:, :horizon] = rng.uniform(-bat.p_discharge_max, bat.p_charge_max, (far.shape[0], horizon))
    far[:, horizon:] = np.where(rng.random((far.shape[0], horizon)) < 0.5, p_nom, 0.0)
    return np.concatenate([near, far])[rng.permutation(count)]


def plan_classify(run: Run) -> dict:
    from hemsflex import epso, hems

    run.config.write_text(json.dumps(run.config_doc(), indent=2))
    matrix = candidates(run)
    horizon = matrix.shape[1] // 2
    path = run.dir / "candidates.csv"
    epso.write_trajectories_csv(path, [hems.FlexTrajectory(r[:horizon], r[horizon:]) for r in matrix])
    stage = ["classify", "--model", str(MODEL), "--input", str(path), "--verdicts", str(run.out / "verdicts.csv")]
    return {
        "stages": [["classify", run.argv(*stage)]],
        "timed": "classify",
        "keep": [],
        "hash_files": ["verdicts.csv"],
        "setup_inputs": [["model", str(MODEL)]],
        "inputs": [run.config, MODEL, path],
    }


def gate_classify(run: Run) -> list[str]:
    """Recompute r^2 from the sigmoid reference model with plain numpy;
    verdicts must agree on every row outside a narrow band around the
    threshold."""
    import numpy as np

    doc = json.loads(MODEL.read_text())
    kernel = doc["kernel"]
    if kernel["kind"] != "sigmoid":
        return [f"the classify gate recomputes sigmoid models only, not {kernel['kind']}"]
    bounds = np.array(doc["norm_bounds"])
    sv = np.array(doc["support_vectors"])
    beta = np.array(doc["coefficients"])
    X = candidates(run)
    span = bounds[:, 1] - bounds[:, 0]
    flat = span <= 0.0
    Z = np.clip(np.where(flat, 0.5, (X - bounds[:, 0]) / np.where(flat, 1.0, span)), 0.0, 1.0)
    K = np.tanh(kernel["gamma"] * (Z @ sv.T) + kernel["coef0"])
    r2 = 1.0 - 2.0 * K @ beta + doc["const_term"]
    limit = doc["radius2_threshold"] + BOUNDARY_SLACK
    verdicts = _read_rows(run.out / "verdicts.csv")
    if len(verdicts) != len(r2):
        return [f"verdicts.csv has {len(verdicts)} rows for {len(r2)} candidates"]
    failures = []
    for i, (row, value) in enumerate(zip(verdicts, r2)):
        if abs(value - limit) > VERDICT_BAND and (row[0] == "feasible") != (value <= limit):
            failures.append(f"verdict row {i}: {row[0]} but recomputed r2 {value!r} vs {limit!r}")
    return failures


PLANS = {"search-reference": plan_search, "validate-reference": plan_validate, "classify-stream": plan_classify}
GATES = {"search-reference": gate_search, "validate-reference": gate_validate, "classify-stream": gate_classify}


def failed_reps(reps: list[dict], gate_failures: list[str]) -> int:
    """A repetition fails on a non-zero exit, on outputs that differ from the
    last repetition's (whose files the gate read), or when the gate fails."""
    last = reps[-1]["hashes"]
    return sum(
        1
        for rep in reps
        if any(rep["codes"].values()) or rep["hashes"] != last or gate_failures
    )


def worker(plan: dict, tag: str) -> dict:
    plan_path = Path(plan["dir"]) / f"{tag}.plan.json"
    result_path = Path(plan["dir"]) / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        check=True, timeout=plan["seconds"] + 160,
    )
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="reference",
                        help="input scale; 'small' is for the self-test")
    args = parser.parse_args(argv)
    for needed in (SRC / "hemsflex" / "cli.py", DATA / SCALES[args.scale]["config"]):
        if not needed.exists():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a hemsflex checkout", file=sys.stderr)
            return 2

    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from hemsflex import epso

    run = Run(args.workload, args.seed, args.scale)
    # The benchmark's build step: whichever run comes first in a checkout
    # pays for the reference search, within the first run's longer limit.
    reference_feasible_set(run)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.out.mkdir(parents=True)
    plan = PLANS[args.workload](run)
    inputs = {str(Path(p).relative_to(ROOT) if Path(p).is_relative_to(ROOT) else p): sha256(p) for p in plan.pop("inputs")}
    plan.update(
        src=str(SRC), config=str(run.config), out=str(run.out), dir=str(run.dir),
        run_id=f"{args.workload}/seed{args.seed}", seconds=args.seconds, trace=args.trace,
        trace_path=str(run.dir / "spans.jsonl"),
    )
    doc = json.loads(run.config.read_text())
    plan["threshold"] = epso.robust_threshold(int(doc["copula"].get("count", 100)), float(doc["epso"].get("tau_scen", 0.9)))

    setups = []
    if not args.trace:
        from worker import quietest_cpu

        cpus = os.sched_getaffinity(0)
        for i in range(SETUP_PROBES):
            quietest_cpu(cpus)
            setups.append(worker(dict(plan, mode="setup"), f"setup{i}")["setup_s"])
        os.sched_setaffinity(0, cpus)
    result = worker(dict(plan, mode="stages"), "worker")
    reps = result["reps"]
    timed = [r["times"][plan["timed"]] for r in reps if plan["timed"] in r["times"]]
    if not timed:
        print(f"perfbench: no {plan['timed']} call completed; exit codes {[r['codes'] for r in reps]}", file=sys.stderr)
        return 1
    try:
        gate_failures = GATES[args.workload](run)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        gate_failures = [f"outputs unreadable: {exc!r}"]
    for line in gate_failures[:20]:
        print(f"perfbench gate: {line}", file=sys.stderr)
    failed = failed_reps(reps, gate_failures)

    # The fastest call is the figure: interference from other tenants of the
    # host only slows a call down, by up to 1.7x in spells lasting seconds to
    # tens of seconds, so the median of a run lands in whichever spell it hit,
    # while of dozens of sub-second calls some fall between spells.
    stage_s = min(timed)
    if args.trace:
        from spans import LAYER_METRICS

        metrics = {k: {"value": result["layers"][k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
    else:
        values = {"stage_s": stage_s, "setup_s": statistics.median(setups), "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "repetitions": len(reps),
        "stage_times_s": timed,
        "setup_times_s": setups,
        "worker_setup_s": result["setup_s"],
        "input_sha256": inputs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
    alias = STAGE_ALIAS[args.workload]
    print(f"{args.workload}: {alias} = {stage_s:.6g} s, fastest of {len(timed)} calls, median "
          f"{statistics.median(timed):.6g} s (stage_s)")
    if args.workload == "classify-stream":
        print(f"{args.workload}: classify_traj_per_s = {run.scale['candidates'] / stage_s:.6g} 1/s")
    print(f"{args.workload}: fail_frac = {failed / len(reps):.6g} ({failed} of {len(reps)} calls)")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    print("perfbench-info " + json.dumps(info))
    summary = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    (run.dir / "result.json").write_text(json.dumps(dict(summary, info=info), indent=2))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
