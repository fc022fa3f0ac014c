"""Repository tooling checks: the example-input generator still writes the
shipped data/ files, byte for byte (every tracked out/small artifact and every
benchmark workload reads them), every exported name exists, every exported
name has a caller outside the tests, and the benchmark recorder assembles its
JSON from perfbench's result lines and pins each timed CLI stage to the
quietest CPU."""

import ast
import importlib
import importlib.metadata
import importlib.util
import json
import os
import pkgutil
import re
import sys
from pathlib import Path

import hemsflex
from tests.conftest import REPO
from tests.conftest import load_tool as _load_tool


def test_make_example_inputs_reproduces_data(tmp_path, monkeypatch):
    tool = _load_tool("make_example_inputs")
    monkeypatch.setattr(tool, "DATA", tmp_path)
    tool.main()
    for name in ("marginals_96.csv", "draws_96.csv", "hems.json"):
        assert (tmp_path / name).read_bytes() == (REPO / "data" / name).read_bytes(), name


def _modules():
    # __main__ runs the CLI on import, and exports nothing.
    names = [f"hemsflex.{m.name}" for m in pkgutil.iter_modules(hemsflex.__path__) if m.name != "__main__"]
    return [hemsflex] + [importlib.import_module(name) for name in names]


def _reads(path: Path) -> set[str]:
    """Names a module reads, as bare names or attributes. A top-level
    definition's reads of its own name do not count, and `__all__` entries
    are strings, so they never do."""
    reads = set()
    for stmt in ast.parse(path.read_text()).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
        reads.discard(own)
    return reads


def test_every_all_name_resolves():
    for module in _modules():
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_every_all_name_has_a_non_test_caller():
    # A public name that only tests reach is a second API to keep in step;
    # perfbench names its traced targets as strings, so it is searched as text.
    src = set().union(*(_reads(path) for path in (REPO / "src" / "hemsflex").glob("*.py")))
    text = "\n".join(path.read_text() for folder in ("tools", "perfbench") for path in (REPO / folder).rglob("*.py"))
    unused = [
        f"{module.__name__}.{name}" for module in _modules() for name in getattr(module, "__all__", ())
        if name not in src and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert not unused


def _run_stdout(workload, metrics, correct=True, failed=0, attempted=4, times=(0.5, 0.4)):
    """perfbench/run.py's stdout for one run: metric lines, the info line,
    then the summary JSON."""
    info = {"workload": workload, "seed": 1, "stage_times_s": list(times), "nproc": 2}
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    lines = [f"{workload}: {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    return "\n".join(lines + ["perfbench-info " + json.dumps(info), json.dumps(summary)]) + "\n"


def test_bench_assembles_json_from_result_lines():
    bench = _load_tool("bench")
    assert bench.WORKLOAD_SESSIONS == 3
    sessions = [
        {"stage_s": (stage_s, "s"), "setup_s": (setup_s, "s"), "peak_rss_mb": (59.3, "MB")}
        for stage_s, setup_s in ((0.25, 0.5), (0.125, 0.25), (0.5, 1.0))
    ]
    layers = {"hems.batch_compliance_calls": (4, "count"), "epso.generations": (3, "count")}
    runs = {
        "search-reference": {
            "untraced": [bench.parse_run_output(_run_stdout("search-reference", m, times=(0.5, k)))
                         for k, m in enumerate(sessions)],
            "traced": bench.parse_run_output(_run_stdout("search-reference", layers, failed=1, times=(0.6,))),
        }
    }
    cli_stages = {"small": {"search": 1.2}, "reference": {"search": 6.6}}
    env = {"nproc": 2, "numpy": "2.4.6"}
    doc = bench.assemble("demo", 1, 8.0, runs, cli_stages, env)
    # The median of three sessions, with the quartiles halfway to the outer values.
    assert json.loads(json.dumps(doc)) == {
        "pr": "demo",
        "seed": 1,
        "seconds": 8.0,
        "workloads": {
            "search-reference": {
                "correct": True,
                "attempted": 16,
                "failed": 1,
                "end_to_end": {
                    "stage_s": {"value": 0.25, "q1": 0.1875, "q3": 0.375, "runs": [0.25, 0.125, 0.5], "unit": "s"},
                    "setup_s": {"value": 0.5, "q1": 0.375, "q3": 0.75, "runs": [0.5, 0.25, 1.0], "unit": "s"},
                    "peak_rss_mb": {"value": 59.3, "q1": 59.3, "q3": 59.3, "runs": [59.3] * 3, "unit": "MB"},
                },
                "layers": {"hems.batch_compliance_calls": {"value": 4, "unit": "count"},
                           "epso.generations": {"value": 3, "unit": "count"}},
                "stage_times_s": [[0.5, 0], [0.5, 1], [0.5, 2]],
            }
        },
        "cli_stages_s": cli_stages,
        "environment": env,
    }


def test_environment_records_scipy_without_importing_it(monkeypatch):
    # scipy is a test dependency only, so the recorder must run where it is
    # absent: it reads the installed version and records None without one.
    bench = _load_tool("bench")
    monkeypatch.setitem(sys.modules, "scipy", None)
    assert bench.environment()["scipy"] == importlib.metadata.version("scipy")

    def absent(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(bench.metadata, "version", absent)
    assert bench.environment()["scipy"] is None


def test_kernel_rates_time_both_passes_pinned(monkeypatch):
    bench = _load_tool("bench")
    worker = importlib.import_module("worker")
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(worker, "_probe", lambda: 0.001)
    pinned = []
    monkeypatch.setattr(bench, "quietest_cpu", lambda allowed: pinned.append(allowed) or worker.quietest_cpu(allowed))
    monkeypatch.setattr(bench, "KERNEL_REPEATS", 2)
    kernel = bench.kernel_rates()
    assert pinned == [cpus] * 2 and os.sched_getaffinity(0) == cpus
    assert kernel.pop("repeats") == 2
    assert {name: (k["rows"], k["surplus_rows"], k["steps"]) for name, k in kernel.items()} == {
        "fused": (30, 101, 96), "rescreen": (bench.RESCREEN_ROWS, 100, 96), "swarm": (30, 101, 96)
    }
    # The fused pass steps its 34-step head for all 30 rows and its tail for
    # the 17 rows whose head passed.
    fused = kernel.pop("fused")
    assert fused["live_rows"] == 17 and fused["lane_steps"] == 30 * 34 + 17 * 101 * 62
    # The swarm's pass steps the tail of the 25 rows whose head passed after
    # the thermostat, and re-screens the tail of its 10 repair candidates.
    swarm = kernel.pop("swarm")
    assert swarm["live_rows"] == 25 and swarm["candidate_rows"] == 10
    assert swarm["lane_steps"] == 30 * 34 + 25 * 101 * 62 + 10 * 100 * 62
    for k in [fused, swarm, *kernel.values()]:
        assert k["lane_steps_per_s"] == k["lane_steps"] / k["best_s"] > 0
    for k in kernel.values():
        assert k["lane_steps"] == k["rows"] * k["surplus_rows"] * k["steps"]


def test_cli_stages_run_pinned_to_the_quietest_cpu(monkeypatch, tmp_path):
    bench = _load_tool("bench")
    worker = importlib.import_module("worker")  # on sys.path since bench loaded it
    cpus = os.sched_getaffinity(0)
    fastest = max(cpus)
    # The probe reads fastest on the highest CPU this process may use.
    monkeypatch.setattr(worker, "_probe", lambda: 0.001 if os.sched_getaffinity(0) == {fastest} else 0.002)
    calls = []

    def run(argv, **kwargs):
        calls.append((argv[argv.index("--out") + 2], os.sched_getaffinity(0)))

    monkeypatch.setattr(bench.subprocess, "run", run)
    stages = bench.time_cli_stages(tmp_path / "config.json", tmp_path)
    assert [stage for stage, _ in calls] == list(bench.CLI_STAGES) * bench.CLI_REPEATS
    assert all(affinity == {fastest} for _, affinity in calls)
    assert os.sched_getaffinity(0) == cpus
    assert set(stages) == set(bench.CLI_STAGES)
    for stage in stages.values():
        assert stage["cpu"] == fastest and stage["probe_s"] == 0.001 and 0.0 <= stage["s"] < 1.0
