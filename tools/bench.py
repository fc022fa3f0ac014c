#!/usr/bin/env python3
"""Record one BENCH_<pr>.json: every benchmark workload's end-to-end and
per-layer metrics, the wall time of each CLI stage at both shipped configs,
and the machine and library versions they were taken with.

Run from the repository root:

    python3 tools/bench.py --pr <label> --seconds 10

For each workload listed in BENCHMARK.json it runs perfbench/run.py as it
stands, with the same seed and --seconds, WORKLOAD_SESSIONS times untraced
(stage_s, setup_s and peak_rss_mb) and once with --trace 1 (the per-layer
metrics). The untraced sessions are interleaved across the workloads, and each
end-to-end metric is recorded as the median of its sessions, with their
quartiles and every session's value: a single session left a workload's
figure to whichever slow spell of a shared host it fell in. It then runs
gen-scenarios, search, train, classify and validate once each on
data/config_small.json and data/config_reference.json, every stage in a fresh
interpreter with BLAS pinned to one thread, as perfbench pins it, and records
its wall time, interpreter start and package import included. Before each
call it pins itself, and so the call, to the CPU that runs perfbench's probe
fastest at that moment (perfbench/worker.py's quietest_cpu), and records that
CPU and its probe time with the stage. The chain runs CLI_REPEATS times and
each stage's fastest call is kept: other tenants of a shared host only ever
slow a call down, and one full reference search read from 6.2 to 9.2 s on the
same 2-vCPU guest. The stages write to a temporary directory, so out/small is
left alone.

Last it times the lane kernel itself in this process (see kernel_rates): no
perfbench span sees the swarm's pass.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from worker import quietest_cpu  # noqa: E402
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CONFIGS = {"small": "config_small.json", "reference": "config_reference.json"}
CLI_STAGES = ("gen-scenarios", "search", "train", "classify", "validate")
CLI_REPEATS = 3
WORKLOAD_SESSIONS = 3
KERNEL_REPEATS = 40
RESCREEN_ROWS = 5
INFO_PREFIX = "perfbench-info "


def parse_run_output(stdout: str) -> dict:
    """The result of one perfbench/run.py call from its stdout: the summary
    JSON of the last line, and the environment of its `perfbench-info` line."""
    lines = stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    info = next(json.loads(line[len(INFO_PREFIX):]) for line in lines if line.startswith(INFO_PREFIX))
    return dict(summary, info=info)


def spread(values: list[float]) -> dict:
    """A metric over several sessions: the median as `value`, its quartiles,
    and each session's value in run order."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": median, "q1": q1, "q3": q3, "runs": values}


def assemble(pr: str, seed: int, seconds: float, runs: dict, cli_stages: dict, environment: dict) -> dict:
    """The BENCH document. `runs` maps each workload to the parsed results of
    its untraced sessions, a list under "untraced", and of its traced run,
    under "traced"; `cli_stages` maps each config to its stages as
    `time_cli_stages` returns them."""
    workloads = {}
    for workload, results in runs.items():
        sessions, traced = results["untraced"], results["traced"]
        workloads[workload] = {
            "correct": all(s["correct"] for s in sessions) and traced["correct"],
            "attempted": sum(s["attempted"] for s in sessions) + traced["attempted"],
            "failed": sum(s["failed"] for s in sessions) + traced["failed"],
            "end_to_end": {
                name: dict(spread([s["metrics"][name]["value"] for s in sessions]), unit=metric["unit"])
                for name, metric in sessions[0]["metrics"].items()
            },
            "layers": traced["metrics"],
            "stage_times_s": [s["info"]["stage_times_s"] for s in sessions],
        }
    return {
        "pr": pr,
        "seed": seed,
        "seconds": seconds,
        "workloads": workloads,
        "cli_stages_s": cli_stages,
        "environment": environment,
    }


def openblas_core() -> str | None:
    """The CPU kernel OpenBLAS picked in this process, where numpy links
    OpenBLAS and the platform lists its loaded libraries."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def environment() -> dict:
    """The machine and library versions. scipy is a test dependency only, so
    its version is read from the installed metadata, None without it, and
    scipy itself is not imported."""
    import numpy

    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_core": openblas_core(),
        "openblas_coretype_env": os.environ.get("OPENBLAS_CORETYPE"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return parse_run_output(proc.stdout)


def time_cli_stages(config: Path, out: Path) -> dict:
    """Each stage's fastest call over CLI_REPEATS runs of the chain: its wall
    time `s`, and the `cpu` it was pinned to with that CPU's `probe_s`. This
    process's CPU affinity is restored afterwards."""
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(ROOT / "src"))
    classify = ["--model", str(out / "model.json"), "--input", str(out / "feasible.csv")]
    cpus = os.sched_getaffinity(0)
    best = {stage: {"s": float("inf")} for stage in CLI_STAGES}
    try:
        for _ in range(CLI_REPEATS):
            for stage in CLI_STAGES:
                extra = classify if stage == "classify" else []
                argv = [sys.executable, "-m", "hemsflex", "--config", str(config), "--out", str(out), stage, *extra]
                cpu, probe_s = quietest_cpu(cpus)
                start = time.perf_counter()
                subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
                elapsed = time.perf_counter() - start
                if elapsed < best[stage]["s"]:
                    best[stage] = {"s": elapsed, "cpu": cpu, "probe_s": probe_s}
    finally:
        os.sched_setaffinity(0, cpus)
    return best


def kernel_rates() -> dict:
    """Lane-steps per second of the lane kernel on the reference day, in this
    process: the fused screen-and-repair pass of a seeded first swarm of
    `pop_size` rows against the scenarios plus their surplus envelope, a full
    `batch_compliance` re-screen of RESCREEN_ROWS of its repaired rows
    (`rescreen`), and the swarm's whole pass, `hems.swarm_pass`, on the same
    rows at the config's robust threshold (`swarm`): thermostat, fused pass
    and the re-screen of its `candidate_rows` included. The fused pass steps
    its head once per row before the first surplus step and its tail only
    for the `live_rows` whose head passed, so its lane steps are rows x first
    plus live_rows x surplus_rows x (steps - first), `first` being the first
    surplus step. The swarm's pass steps those of the fused pass on the
    thermostat's rows, whose `live_rows` are its own, plus candidate_rows x
    (surplus_rows - 1) x (steps - first) for the re-screen. Each of
    KERNEL_REPEATS rounds pins this process to perfbench's quietest CPU and
    times each call once; a call's figure is its best round. The affinity is
    restored."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from hemsflex import cli, epso, hems, scenarios

    cfg = cli.RunConfig.load(ROOT / "data" / CONFIGS["reference"])
    values = scenarios.generate_scenarios(scenarios.read_marginals_csv(cfg.marginals_path), cfg.copula).values
    hems_cfg, dt, horizon = cfg.hems_config(), cfg.dt_hours, values.shape[1]
    threshold = epso.robust_threshold(len(values), cfg.epso.tau_scen)
    rows = epso.seed_initial_population(values[0], cfg.epso, hems_cfg, np.random.default_rng(cfg.seed)).x
    p_bat, p_ewh = rows[:, :horizon], rows[:, horizon:]
    *_, fixed, _, prefix = hems.screen_with_repair(p_bat, p_ewh, values, hems_cfg, dt)
    repaired, ewh = fixed[:RESCREEN_ROWS], p_ewh[:RESCREEN_ROWS]
    first, live = prefix.start, int(np.count_nonzero(~prefix.fault))
    screened = hems.swarm_pass(p_bat, p_ewh, values, hems_cfg, dt, threshold)
    candidates, swarm_live = int(screened.candidates.size), len(rows) - screened.head_faulted
    fused = {"rows": len(rows), "live_rows": live, "surplus_rows": len(values) + 1, "steps": horizon}
    rescreen = {"rows": RESCREEN_ROWS, "surplus_rows": len(values), "steps": horizon}
    swarm = fused | {"live_rows": swarm_live, "candidate_rows": candidates}
    calls = {
        "fused": (lambda: hems.screen_with_repair(p_bat, p_ewh, values, hems_cfg, dt), fused,
                  len(rows) * first + live * (len(values) + 1) * (horizon - first)),
        "rescreen": (lambda: hems.batch_compliance(repaired, ewh, values, hems_cfg, dt), rescreen,
                     RESCREEN_ROWS * len(values) * horizon),
        "swarm": (lambda: hems.swarm_pass(p_bat, p_ewh, values, hems_cfg, dt, threshold), swarm,
                  len(rows) * first + (swarm_live * (len(values) + 1) + candidates * len(values)) * (horizon - first)),
    }
    best = dict.fromkeys(calls, float("inf"))
    cpus = os.sched_getaffinity(0)
    try:
        for _ in range(KERNEL_REPEATS):
            quietest_cpu(cpus)
            for name, (call, *_) in calls.items():
                start = time.perf_counter()
                call()
                best[name] = min(best[name], time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return {
        name: shape | {"lane_steps": lane_steps, "best_s": best[name], "lane_steps_per_s": lane_steps / best[name]}
        for name, (_, shape, lane_steps) in calls.items()
    } | {"repeats": KERNEL_REPEATS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="label of the change measured, used in the file name")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench/run.py --seconds of every run")
    parser.add_argument("--seed", type=int, default=1, help="perfbench/run.py --seed of every run")
    parser.add_argument("--out", type=Path, default=None, help="output path (default BENCH_<pr>.json at the root)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {workload: {"untraced": []} for workload in workloads}
    for session in range(1, WORKLOAD_SESSIONS + 1):
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, 0)
            runs[workload]["untraced"].append(result)
            print(f"{workload} session {session}: stage_s {result['metrics']['stage_s']['value']:.6g} s", flush=True)
    for workload in workloads:
        runs[workload]["traced"] = run_workload(workload, args.seed, args.seconds, 1)
    cli_stages = {}
    for scale, name in CONFIGS.items():
        with tempfile.TemporaryDirectory(prefix=f"bench-{scale}-") as out:
            cli_stages[scale] = time_cli_stages(ROOT / "data" / name, Path(out))
        print(f"{scale}: " + ", ".join(f"{k} {v['s']:.3g} s" for k, v in cli_stages[scale].items()), flush=True)

    doc = assemble(args.pr, args.seed, args.seconds, runs, cli_stages, environment())
    doc["kernel"] = kernel = kernel_rates()
    print(", ".join(f"{k} {kernel[k]['lane_steps_per_s']:.3g} lane-steps/s" for k in ("fused", "rescreen", "swarm")))
    path = args.out or ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
