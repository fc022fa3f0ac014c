"""Self-test of the benchmark at data/config_small.json scale.

    python3 perfbench/check.py

Runs every workload untraced and traced at the small scale and checks that
every metric prints with its unit, that each per-layer metric is non-zero on
the workload spans.LAYER_METRICS names for it, that traced and untraced runs
write byte-identical outputs, that a corrupted output (one edited fitness, one
flipped verdict) fails its gate and raises fail_frac, and that out/small/* is
left untouched. Exits 0 when all hold.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

SEED = 3


def bench_run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def last_hashes(workload: str) -> dict:
    result = json.loads((bench.WORK / workload / "worker.result.json").read_text())
    return result["reps"][-1]["hashes"]


def corrupt_csv(path: Path, row: int, column: int, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][column] = edit(rows[row + 1][column])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS), "workloads differ from run.py")
    expect(end_to_end == bench.END_TO_END, "end-to-end metrics differ from run.py")
    expect(per_layer == {k: v[0] for k, v in LAYER_METRICS.items()}, "per-layer metrics differ from spans.py")
    expect(
        {m["name"]: m["better"] for m in spec["per_layer"]} == {k: v[1] for k, v in LAYER_METRICS.items()},
        "per-layer directions differ from spans.py",
    )
    small = sorted((ROOT / "out" / "small").iterdir())
    before = {p.name: bench.sha256(p) for p in small}

    for workload in bench.WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            result, lines = bench_run(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(result["correct"] and result["failed"] == 0, f"{tag}: not correct: {result}")
            expect(set(result["metrics"]) == set(names), f"{tag}: metrics {sorted(result['metrics'])}")
            for name, unit in names.items():
                metric = result["metrics"].get(name, {})
                expect(metric.get("unit") == unit, f"{tag}: {name} has unit {metric.get('unit')}")
                expect(any(line.endswith(f"{name} = {metric.get('value', 0):.6g} {unit}") for line in lines),
                       f"{tag}: {name} not printed with its unit")
            if trace == 0:
                untraced = last_hashes(workload)
                for name in names:
                    expect(result["metrics"][name]["value"] > 0, f"{tag}: {name} is not positive")
            else:
                expect(last_hashes(workload) == untraced, f"{tag}: traced outputs differ from untraced")
                for name, (_, _, _, heavy) in LAYER_METRICS.items():
                    if heavy == workload:
                        expect(result["metrics"][name]["value"] != 0, f"{tag}: {name} is zero")

    search = bench.Run("search-reference", SEED, "small")
    reps = json.loads((search.dir / "worker.result.json").read_text())["reps"]
    expect(not bench.gate_search(search), "search gate fails on clean output")
    n_rows = len(bench._read_rows(search.out / "feasible.csv"))
    corrupt_csv(search.out / "feasible.csv", bench.search_sample(SEED, n_rows)[0], -1, lambda f: str(int(f) - 1))
    failures = bench.gate_search(search)
    expect(bool(failures) and bench.failed_reps(reps, failures) > 0, "edited fitness passes the search gate")

    classify = bench.Run("classify-stream", SEED, "small")
    reps = json.loads((classify.dir / "worker.result.json").read_text())["reps"]
    expect(not bench.gate_classify(classify), "classify gate fails on clean output")
    flip = {"feasible": "infeasible", "infeasible": "feasible"}
    corrupt_csv(classify.out / "verdicts.csv", 0, 0, flip.get)
    failures = bench.gate_classify(classify)
    expect(bool(failures) and bench.failed_reps(reps, failures) > 0, "flipped verdict passes the classify gate")

    expect({p.name: bench.sha256(p) for p in small} == before, "out/small changed")
    for line in problems:
        print(f"FAIL {line}")
    print("perfbench self-test: " + ("ok" if not problems else f"{len(problems)} failures"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
