"""Spans around the public functions of the hemsflex modules, recorded from
outside the package, and the per-layer metrics derived from them.

A wrapper is installed wherever a module holds a reference to the wrapped
function, not only in the module that defines it: `epso` binds
`batch_compliance` and `repair_trajectory` at import, and `analysis` binds the
`hems` helpers and `svdd.classify`, so patching the defining module alone
would miss those calls. Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# Per-layer metrics of the traced run: name -> (unit, better, the end-to-end
# metric it should move, the workload where it is heavy). The end-to-end
# names are the stage each workload times: search_s is stage_s on
# search-reference, validate_s is stage_s on validate-reference, and
# classify_traj_per_s is the candidate count over stage_s on classify-stream.
# A layer's metric reads 0 on a workload that never calls the layer. The
# trace.* entries are the tracing overhead itself: the fastest traced minus the
# fastest untraced call of the timed stage, and that over the untraced call.
LAYER_METRICS = {
    "scenarios.generate_s": ("s", "lower", "search_s", "search-reference"),
    "hems.batch_compliance_calls": ("count", "lower", "search_s", "search-reference"),
    "hems.batch_compliance_s": ("s", "lower", "search_s", "search-reference"),
    "hems.lane_steps_per_s": ("1/s", "higher", "search_s", "search-reference"),
    "hems.simulate_calls": ("count", "lower", "search_s", "search-reference"),
    "hems.pv_accommodation_calls": ("count", "lower", "search_s", "search-reference"),
    "hems.feasible_power_range_calls": ("count", "lower", "validate_s", "validate-reference"),
    "epso.generations": ("count", "lower", "search_s", "search-reference"),
    "epso.generation_p50_ms": ("ms", "lower", "search_s", "search-reference"),
    "epso.generation_p90_ms": ("ms", "lower", "search_s", "search-reference"),
    "epso.move_s": ("s", "lower", "search_s", "search-reference"),
    "epso.tournament_s": ("s", "lower", "search_s", "search-reference"),
    "epso.evaluations": ("count", "lower", "search_s", "search-reference"),
    "epso.evaluate_yield": ("ratio", "higher", "search_s", "search-reference"),
    "epso.repair_calls": ("count", "lower", "search_s", "search-reference"),
    "epso.repair_s": ("s", "lower", "search_s", "search-reference"),
    "epso.repair_yield": ("ratio", "higher", "search_s", "search-reference"),
    "epso.feasible_add_calls": ("count", "lower", "search_s", "search-reference"),
    "epso.dedup_rejects": ("count", "lower", "search_s", "search-reference"),
    "epso.feasible_add_s": ("s", "lower", "search_s", "search-reference"),
    "epso.distances_s": ("s", "lower", "search_s", "search-reference"),
    "epso.read_trajectories_csv_s": ("s", "lower", "classify_traj_per_s", "classify-stream"),
    "epso.write_trajectories_csv_s": ("s", "lower", "validate_s", "validate-reference"),
    "svdd.kernel_matrix_calls": ("count", "lower", "validate_s", "validate-reference"),
    "svdd.kernel_matrix_s": ("s", "lower", "validate_s", "validate-reference"),
    "svdd.kernel_matrix_gflop": ("Gflop", "lower", "validate_s", "validate-reference"),
    "svdd.train_calls": ("count", "lower", "validate_s", "validate-reference"),
    "svdd.train_s": ("s", "lower", "validate_s", "validate-reference"),
    "svdd.train_self_s": ("s", "lower", "validate_s", "validate-reference"),
    "svdd.support_vectors": ("count", "lower", "validate_s", "validate-reference"),
    "svdd.classify_calls": ("count", "lower", "validate_s", "validate-reference"),
    "svdd.radius_squared_s": ("s", "lower", "classify_traj_per_s", "classify-stream"),
    "analysis.generate_infeasible_set_s": ("s", "lower", "validate_s", "validate-reference"),
    "analysis.infeasible_attempts": ("count", "lower", "validate_s", "validate-reference"),
    "analysis.infeasible_acceptance_rate": ("ratio", "higher", "validate_s", "validate-reference"),
    "analysis.semi_random_baseline_s": ("s", "lower", "validate_s", "validate-reference"),
    "analysis.confusion_table_s": ("s", "lower", "validate_s", "validate-reference"),
    "analysis.pca_diversity_s": ("s", "lower", "validate_s", "validate-reference"),
    "cli.gen_scenarios_s": ("s", "lower", "search_s", "search-reference"),
    "cli.train_s": ("s", "lower", "search_s", "search-reference"),
    "trace.overhead_s": ("s", "lower", None, "search-reference"),
    "trace.overhead_frac": ("ratio", "lower", None, "search-reference"),
}


def _shape_info(args, result):
    """Lane steps (scenarios x horizon) and compliant scenarios of one
    batch_compliance(p_bat, p_ewh, net_load, ...) call."""
    zero_penalty, accommodation_ok = result
    return args[2].size, int((zero_penalty & accommodation_ok).sum())


def _flop_info(args, result):
    """2 n m d floating-point operations of one kernel_matrix(spec, A, B) call."""
    return 2 * result.size * args[1].shape[-1]


# (module, attribute, span name, info taken from the call). A dotted attribute
# names a method on a class of that module.
TARGETS = [
    ("scenarios", "generate_scenarios", "scenarios.generate", None),
    ("hems", "batch_compliance", "hems.batch_compliance", _shape_info),
    ("hems", "simulate", "hems.simulate", None),
    ("hems", "pv_accommodation", "hems.pv_accommodation", None),
    ("hems", "feasible_power_range", "hems.feasible_power_range", None),
    ("epso", "run", "epso.run", lambda a, r: r.iterations),
    ("epso", "mutate_weights", "epso.move", None),
    ("epso", "perturb_global_best", "epso.move", None),
    ("epso", "move_particle", "epso.move", None),
    ("epso", "stochastic_tournament", "epso.tournament", None),
    ("epso", "repair_trajectory", "epso.repair", None),
    ("epso", "evaluate_fitness", "epso.evaluate_fitness", lambda a, r: r),
    ("epso", "FeasibleSet.add", "epso.feasible_add", lambda a, r: r),
    ("epso", "FeasibleSet.distances", "epso.distances", None),
    ("epso", "read_trajectories_csv", "epso.read_trajectories_csv", None),
    ("epso", "write_trajectories_csv", "epso.write_trajectories_csv", None),
    ("svdd", "kernel_matrix", "svdd.kernel_matrix", _flop_info),
    ("svdd", "train", "svdd.train", lambda a, r: r.n_support),
    ("svdd", "classify", "svdd.classify", None),
    ("svdd", "radius_squared", "svdd.radius_squared", None),
    ("analysis", "generate_infeasible_set", "analysis.generate_infeasible_set",
     lambda a, r: (r.attempts, len(r.trajectories))),
    ("analysis", "semi_random_baseline", "analysis.semi_random_baseline", None),
    ("analysis", "confusion_table", "analysis.confusion_table", None),
    ("analysis", "pca_diversity", "analysis.pca_diversity", None),
    ("cli", "cmd_gen_scenarios", "cli.gen_scenarios", None),
    ("cli", "cmd_search", "cli.search", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_classify", "cli.classify", None),
    ("cli", "cmd_validate", "cli.validate", None),
]


class Tracer:
    """In-memory span log. A span is (name, start, end, parent index, run id,
    info); `info` is whatever the target's info function took from the call,
    or None when the call raised."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stamps: list[tuple[str, int, float]] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            # Generation times come from stamping the search log's records.
            if name == "epso.run" and kwargs.get("log_sink") is not None:
                kwargs["log_sink"] = self._stamping(kwargs["log_sink"])
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                detail = info(args, result) if info is not None and result is not None else None
                self.spans[index] = (name, start, end, parent, self.run_id, detail)

        return traced

    def _stamping(self, sink):
        """Log sink that stamps each search-log record as it is emitted."""

        def stamped(record):
            self.stamps.append((self.run_id, int(record["iteration"]), time.perf_counter()))
            sink(record)

        return stamped

    def install(self, modules: dict) -> None:
        """Wrap every target in every module that holds a reference to it."""
        for mod_name, attr, span_name, info in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner, attr = getattr(owner, cls_name), method
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original, info)
            holders = [owner] + [m for m in modules.values() if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, run_id: str, threshold: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; `threshold` is the robust
    compliant-scenario count of the search."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == run_id]
    by_name = defaultdict(list)
    for i, span in spans:
        by_name[span[0]].append((i, span))

    def total(name):
        return sum(s[2] - s[1] for _, s in by_name[name])

    def count(name):
        return len(by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    names = {i: s[0] for i, s in spans}
    compliance = by_name["hems.batch_compliance"]
    evaluations = [s for _, s in compliance if names.get(s[3]) != "epso.evaluate_fitness"]
    lane_steps = sum(s[5][0] for _, s in compliance)
    repaired_robust = sum(1 for _, s in by_name["epso.evaluate_fitness"] if s[5] is not None and s[5] >= threshold)
    adds = by_name["epso.feasible_add"]
    trains = by_name["svdd.train"]
    train_ids = {i for i, _ in trains}
    train_children = sum(s[2] - s[1] for _, s in spans if s[3] in train_ids)
    infeasible = [s[5] for _, s in by_name["analysis.generate_infeasible_set"] if s[5] is not None]
    attempts = sum(a for a, _ in infeasible)
    stamps = sorted((it, t) for rid, it, t in tracer.stamps if rid == run_id)
    generation_ms = [1e3 * (t1 - t0) for (_, t0), (it, t1) in zip(stamps, stamps[1:]) if it >= 1]

    return {
        "scenarios.generate_s": total("scenarios.generate"),
        "hems.batch_compliance_calls": len(compliance),
        "hems.batch_compliance_s": total("hems.batch_compliance"),
        "hems.lane_steps_per_s": ratio(lane_steps, total("hems.batch_compliance")),
        "hems.simulate_calls": count("hems.simulate"),
        "hems.pv_accommodation_calls": count("hems.pv_accommodation"),
        "hems.feasible_power_range_calls": count("hems.feasible_power_range"),
        "epso.generations": sum(s[5] or 0 for _, s in by_name["epso.run"]),
        "epso.generation_p50_ms": statistics.median(generation_ms) if generation_ms else 0.0,
        "epso.generation_p90_ms": _percentile(generation_ms, 0.9),
        "epso.move_s": total("epso.move"),
        "epso.tournament_s": total("epso.tournament"),
        "epso.evaluations": len(evaluations),
        "epso.evaluate_yield": ratio(sum(1 for s in evaluations if s[5][1] >= threshold), len(evaluations)),
        "epso.repair_calls": count("epso.repair"),
        "epso.repair_s": total("epso.repair"),
        "epso.repair_yield": ratio(repaired_robust, count("epso.repair")),
        "epso.feasible_add_calls": len(adds),
        "epso.dedup_rejects": sum(1 for _, s in adds if s[5] is False),
        "epso.feasible_add_s": total("epso.feasible_add"),
        "epso.distances_s": total("epso.distances"),
        "epso.read_trajectories_csv_s": total("epso.read_trajectories_csv"),
        "epso.write_trajectories_csv_s": total("epso.write_trajectories_csv"),
        "svdd.kernel_matrix_calls": count("svdd.kernel_matrix"),
        "svdd.kernel_matrix_s": total("svdd.kernel_matrix"),
        "svdd.kernel_matrix_gflop": sum(s[5] for _, s in by_name["svdd.kernel_matrix"]) / 1e9,
        "svdd.train_calls": len(trains),
        "svdd.train_s": total("svdd.train"),
        "svdd.train_self_s": total("svdd.train") - train_children,
        "svdd.support_vectors": sum(s[5] for _, s in trains),
        "svdd.classify_calls": count("svdd.classify"),
        "svdd.radius_squared_s": total("svdd.radius_squared"),
        "analysis.generate_infeasible_set_s": total("analysis.generate_infeasible_set"),
        "analysis.infeasible_attempts": attempts,
        "analysis.infeasible_acceptance_rate": ratio(sum(k for _, k in infeasible), attempts),
        "analysis.semi_random_baseline_s": total("analysis.semi_random_baseline"),
        "analysis.confusion_table_s": total("analysis.confusion_table"),
        "analysis.pca_diversity_s": total("analysis.pca_diversity"),
        "cli.gen_scenarios_s": total("cli.gen_scenarios"),
        "cli.train_s": total("cli.train"),
    }
