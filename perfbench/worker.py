"""Runs one workload's CLI stages in a fresh interpreter, so that set-up time
includes the package import and peak RSS is the workload's own.

    python3 perfbench/worker.py PLAN_JSON RESULT_JSON

The plan comes from run.py. In "setup" mode the worker only sets up. In
"stages" mode it then repeats the plan's stage calls, one at a time, until the
plan's seconds have passed. With tracing on it alternates untraced and traced
repetitions, so the trace overhead is measured under the same conditions.

Other tenants of a shared host slow each of its CPUs in spells of their own,
so before each repetition the worker times a short probe on every CPU it may
use and pins itself to the fastest one (see quietest_cpu).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _probe() -> float:
    """Seconds of the fastest of three runs of a fixed ~2 ms mix of
    interpreter and small-matrix work, like the stages' own."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 300 * 192).reshape(300, 192)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        np.tanh(a @ a[:152].T)
        best = min(best, time.perf_counter() - t0)
    return best


def quietest_cpu(cpus: set[int]) -> tuple[int, float]:
    """Pin this process to whichever of `cpus` runs the probe fastest now;
    returns that CPU and its probe time."""
    timings = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = _probe()
    cpu = min(timings, key=timings.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, timings[cpu]


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    sys.path.insert(0, plan["src"])
    import hemsflex
    from hemsflex import analysis, cli, epso, hems, scenarios, svdd

    cfg = cli.RunConfig.load(plan["config"])
    cfg.hems_config()
    readers = {
        "marginals": scenarios.read_marginals_csv,
        "scenarios": scenarios.ScenarioSet.read_csv,
        "trajectories": epso.read_trajectories_csv,
        "model": svdd.load_model,
    }
    for kind, path in plan["setup_inputs"]:
        readers[kind](path)
    result = {"setup_s": time.perf_counter() - start}

    if plan["mode"] == "stages":
        from spans import Tracer, layer_metrics

        modules = {"hemsflex": hemsflex, "analysis": analysis, "cli": cli, "epso": epso,
                   "hems": hems, "scenarios": scenarios, "svdd": svdd}
        tracer = Tracer() if plan["trace"] else None
        out = Path(plan["out"])
        reps = []
        cpus = os.sched_getaffinity(0)
        deadline = time.perf_counter() + plan["seconds"]
        while not reps or time.perf_counter() < deadline or (tracer and len(reps) < 2):
            for stale in out.iterdir():
                if stale.name not in plan["keep"]:
                    stale.unlink()
            traced = tracer is not None and len(reps) % 2 == 1
            rep = {"id": f"{plan['run_id']}/rep{len(reps)}", "traced": traced, "times": {}, "codes": {}}
            rep["cpu"], rep["probe_s"] = quietest_cpu(cpus)
            if traced:
                tracer.run_id = rep["id"]
                tracer.install(modules)
            for name, argv in plan["stages"]:
                # Each stage prints a one-line summary; the benchmark's own
                # stdout must end with its result line.
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    code = cli.main(argv)
                    rep["times"][name] = time.perf_counter() - t0
                rep["codes"][name] = code
                if code != 0:
                    break
            if traced:
                tracer.uninstall()
            rep["hashes"] = {f: sha256(out / f) for f in plan["hash_files"] if (out / f).exists()}
            reps.append(rep)
        os.sched_setaffinity(0, cpus)
        result["reps"] = reps
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write(Path(plan["trace_path"]))
            per_rep = [layer_metrics(tracer, r["id"], plan["threshold"]) for r in reps if r["traced"]]
            layers = {k: statistics.median_low(m[k] for m in per_rep) for k in per_rep[0]}
            timed = plan["timed"]
            traced_s = min(r["times"].get(timed, 0.0) for r in reps if r["traced"])
            untraced_s = min(r["times"].get(timed, 0.0) for r in reps if not r["traced"])
            layers["trace.overhead_s"] = traced_s - untraced_s
            layers["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
            result["layers"] = layers

    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
