"""Turn one run's measurements into the benchmark's named metrics."""

from __future__ import annotations

from collections import defaultdict
from typing import Any

import checks
from spans import Recorder, covered, self_times

#: end-to-end metrics: name -> unit (see README.md for definitions)
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "compile_s": "s",
    "simulated_s": "s",
    "peak_rss_mb": "MB",
}

#: compile passes, timed per ``compile_program`` call
PASSES = (
    "optimizer.plan_fingerprint",
    "optimizer.inline_single_use",
    "optimizer.plan_caching",
    "optimizer.normalize",
    "optimizer.fold_group_fusion",
    "lowering.lower",
    "optimizer.reorder_operators",
    "lowering.chain_operators",
    "optimizer.select_columnar",
    "optimizer.annotate_physical",
)
#: combinator kinds with per-kind executor metrics
KINDS = ("Source", "Filter", "Map", "FlatMap", "Chain", "AggBy", "EqJoin", "SemiJoin")
#: span name -> metric name, for inclusive seconds per traced op
OP_SPANS = {
    "optimizer.snapshot_fingerprint": "optimizer.snapshot_fingerprint.s",
    "plancache.lookup_plan": "plancache.lookup_plan.s",
    "plancache.lookup_result": "plancache.lookup_result.s",
    "plancache.store_plan": "plancache.store_plan.s",
    "plancache.store_result": "plancache.store_result.s",
    "engine.collect": "engine.collect.s",
    "engine.cache": "engine.cache.s",
    "stateful.update": "stateful.update.s",
    "scheduler.run_graph": "scheduler.run_graph.s",
    "scheduler.ship_task": "scheduler.ship_task.s",
    "scheduler.wait": "scheduler.wait_s",
    "chainkernel.build": "chainkernel.build.s",
    "columnar.build_batch": "columnar.build_batch.s",
    "columnar.bucket_indices": "columnar.bucket_indices.s",
    "columnar.scatter_batch": "columnar.scatter_batch.s",
    "columnar.probe_join": "columnar.probe_join.s",
    "columnar.concat_batches": "columnar.concat_batches.s",
    "spill.evict_to_budget": "spill.evict_to_budget.s",
    "spill.ship_task_payload": "spill.ship_task_payload.s",
    "sizes.estimate": "sizes.estimate.s",
}
#: engine counter -> metric name, as a mean per traced op
OP_COUNTERS = {
    "element_ops": "executor.element_ops",
    "udfs_compiled": "executor.udfs_compiled",
    "dag_memo_hits": "executor.dag_memo_hits",
    "parallel_tasks": "scheduler.tasks",
    "ipc_bytes_shipped": "scheduler.ipc_bytes_shipped",
    "ipc_bytes_returned": "scheduler.ipc_bytes_returned",
    "serial_fallbacks": "scheduler.serial_fallbacks",
    "columnar_batches_built": "columnar.batches_built",
    "columnar_fallbacks": "columnar.fallbacks",
    "columnar_shuffles": "columnar.shuffles",
    "columnar_joins": "columnar.joins",
    "spill_bytes_written": "spill.bytes_written",
    "spill_bytes_read": "spill.bytes_read",
    "partitions_spilled": "spill.partitions_spilled",
    "partitions_reloaded": "spill.partitions_reloaded",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"frontend.lift_s": "s", "frontend.run_compiled.self_s": "s"}
    units.update({f"{p}.s": "s" for p in PASSES})
    units["optimizer.compiles"] = "count"
    for metric in OP_SPANS.values():
        units[metric] = "s"
    units.update(
        {
            "plancache.plan_hit_rate": "ratio",
            "plancache.plan_lookups": "count",
            "plancache.result_hit_rate": "ratio",
            "plancache.result_lookups": "count",
            "plancache.bytes_written": "B",
            "server.admission_wait.s": "s",
        }
    )
    for kind in KINDS:
        units[f"executor.{kind}.self_s"] = "s"
        units[f"executor.{kind}.rows_out"] = "count"
    for metric in OP_COUNTERS.values():
        units[metric] = "B" if "bytes" in metric else "count"
    units["chainkernel.builds"] = "count"
    units["sizes.estimate_calls"] = "count"
    units["bench.trace_overhead_frac"] = "ratio"
    units["bench.unattributed_frac"] = "ratio"
    return units


def end_to_end(result: Any) -> dict[str, float]:
    latencies = [op.seconds for op in result.ops]
    return {
        "setup_s": checks.median(result.setup_s),
        "op_s_p50": checks.median(latencies),
        "ops_per_s": len(result.ops) / result.timed_s,
        "compile_s": sum(checks.median(v) for v in result.compile_s.values()),
        "simulated_s": result.simulated_s,
        "peak_rss_mb": result.peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(result: Any, recorder: Recorder, rows: dict) -> dict[str, float]:
    """Per-layer metrics from the traced ops of a run.

    Runtime layers are reported per traced op; compile passes per
    ``compile_program`` call (in set-up, between ops and inside service
    requests alike); the lift time per lift.
    """
    traced = [op for op in result.ops if op.traced]
    untraced = [op for op in result.ops if not op.traced]
    n = len(traced)
    owner: dict[str, str] = {}
    for op in traced:
        owner[op.id] = op.id
        if op.job_tag is not None:
            owner[op.job_tag] = op.id
        if op.admitted is not None and op.admitted[1] is not None:
            recorder.add("server.admission_wait", *op.admitted, op=op.id)

    spans = recorder.spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def under_compile(span: Any) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "optimizer.compile_program":
                return True
        return False

    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    passes: dict[str, float] = defaultdict(float)
    lifts: list[float] = []
    compiles = 0
    op_spans: dict[str, list] = defaultdict(list)
    for span in spans:
        if span.name == "frontend.lift":
            lifts.append(span.duration)
        elif span.name == "optimizer.compile_program":
            compiles += 1
        elif span.name in PASSES and under_compile(span):
            passes[span.name] += span.duration
        op = owner.get(span.op)
        if op is None:
            continue
        op_spans[op].append(span)
        inclusive[span.name] += span.duration
        own[span.name] += selfs[span.id]
        calls[span.name] += 1

    out: dict[str, float] = {
        "frontend.lift_s": _ratio(sum(lifts), len(lifts)),
        "frontend.run_compiled.self_s": _ratio(own["frontend.run_compiled"], n),
    }
    out.update({f"{p}.s": _ratio(passes[p], compiles) for p in PASSES})
    out["optimizer.compiles"] = _ratio(calls["optimizer.compile_program"], n)
    for name, metric in OP_SPANS.items():
        out[metric] = _ratio(inclusive[name], n)
    stats = result.cache_stats
    plan_lookups = stats.get("plan_hits", 0) + stats.get("plan_misses", 0)
    result_lookups = stats.get("result_hits", 0) + stats.get("result_misses", 0)
    out.update(
        {
            "plancache.plan_hit_rate": _ratio(stats.get("plan_hits", 0), plan_lookups),
            "plancache.plan_lookups": _ratio(plan_lookups, n),
            "plancache.result_hit_rate": _ratio(stats.get("result_hits", 0), result_lookups),
            "plancache.result_lookups": _ratio(result_lookups, n),
            "plancache.bytes_written": _ratio(stats.get("bytes_written", 0), n),
            "server.admission_wait.s": _ratio(inclusive["server.admission_wait"], n),
        }
    )
    traced_ids = {op.id for op in traced}
    for kind in KINDS:
        name = f"executor.{kind}"
        out[f"{name}.self_s"] = _ratio(own[name], n)
        kind_rows = sum(
            count
            for (span_name, op_id), count in rows.items()
            if span_name == name and owner.get(op_id) in traced_ids
        )
        out[f"{name}.rows_out"] = _ratio(kind_rows, n)
    for counter, metric in OP_COUNTERS.items():
        out[metric] = _ratio(sum(op.counters.get(counter, 0) for op in traced), n)
    out["chainkernel.builds"] = _ratio(calls["chainkernel.build"], n)
    out["sizes.estimate_calls"] = _ratio(calls["sizes.estimate"], n)
    traced_mean = _ratio(sum(op.seconds for op in traced), n)
    untraced_mean = _ratio(sum(op.seconds for op in untraced), len(untraced))
    out["bench.trace_overhead_frac"] = _ratio(traced_mean, untraced_mean) - 1
    total = sum(op.seconds for op in traced)
    uncovered = sum(
        op.seconds - covered(op_spans[op.id], op.start, op.end) for op in traced
    )
    out["bench.unattributed_frac"] = _ratio(uncovered, total)
    return out
