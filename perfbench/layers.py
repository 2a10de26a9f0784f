"""Per-layer metrics of a traced sample, and the traced run's integrity checks.

Each metric is read from the spans of ``perfbench/tracer.py`` (parent side)
plus the timers and counters pool workers merge back through
``telemetry.metrics`` (worker side), or from the engines' own counters.
The end-to-end metric each one should move, and on which workload, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from perfbench.tracer import Tracer

GRAPH_SPANS = ("graphs.star_graph", "graphs.random_regular_graph",
               "graphs.async_favoring_gap_graph")
_SMALL_GRAPHS = set(GRAPH_SPANS) | {"core.flatgraph.flat_adjacency"}

#: Spans a traced sample of each workload must see at least one call of.
EXPECTED_SPANS = {
    "paper-async": _SMALL_GRAPHS | {
        "analysis.montecarlo.run_trials", "core.batch_engine.run_batch",
        "core.kernels.async_tick_loop", "core.kernels.sync_round_step",
    },
    "scenario-sweep": _SMALL_GRAPHS | {
        "analysis.pool.start", "analysis.pool.get_pool",
        "analysis.parallel.run_trials_parallel", "analysis.montecarlo.run_trials",
        "core.batch_engine.run_batch", "core.serial.spread",
        "core.kernels.sync_round_step", "core.kernels.clock_chunk_consume",
    },
    "large-n-sync": {
        "graphs.random_regular_graph", "core.flatgraph.flat_adjacency",
        "analysis.montecarlo.run_trials", "core.batch_engine.run_batch",
        "core.kernels.sync_round_step",
    },
}

#: Counters a traced sample of each workload must see move.
EXPECTED_COUNTERS = {
    "paper-async": ("analysis.trials", "engine.kernel_invocations", "engine.clock_ticks",
                    "engine.rounds"),
    "scenario-sweep": ("analysis.trials", "parallel.chunks", "shm.segments",
                       "shm.sweep_segment_reuses", "engine.messages_lost",
                       "scenario.adversary_budget_spent", "engine.clock_ticks"),
    "large-n-sync": ("analysis.trials", "engine.kernel_invocations", "engine.rounds"),
}

#: Which numbers are parent-side spans and which are merged worker counters.
PROVENANCE = (
    "scenario-sweep: graphs.*, core.flatgraph (parent share), analysis.pool.start_s, "
    "analysis.parallel.call_s, wait_s and worker_busy_frac's denominator are parent-side "
    "spans; run_trials, run_batch, spread and the kernels run in the pool workers and are "
    "worker timers (trace.total.*/trace.self.*) and counters (engine.*, analysis.*, "
    "parallel.chunk_seconds, scenario.*) merged back through telemetry.metrics; "
    "parallel.chunks and shm.* are counted in the parent."
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    plan: Any,
    tracer: Tracer,
    registry: Any,
    samples: dict[int, np.ndarray],
    trial_start: float,
    trial_end: float,
) -> dict[str, list]:
    """Every per-layer metric of one traced sample, as ``name -> [value, unit]``."""
    table = tracer.layer_totals(registry)
    counters = registry.counters
    timers = registry.timers
    work = tracer.work_counts(registry)

    def total(name: str) -> float:
        return table[name]["parent_total_s"] + table[name]["worker_total_s"]

    def self_time(name: str) -> float:
        return table[name]["parent_self_s"] + table[name]["worker_self_s"]

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    def seconds(timer: str) -> float:
        return float(timers.get(timer, [0.0, 0])[0])

    build_s = sum(total(name) for name in GRAPH_SPANS)
    async_s = total("core.kernels.async_tick_loop")
    sync_s = total("core.kernels.sync_round_step")
    clock_s = total("core.kernels.clock_chunk_consume")
    serial_s = seconds("analysis.serial_seconds")
    batch_s = seconds("analysis.batch_seconds")
    call_s = table["analysis.parallel.run_trials_parallel"]["parent_total_s"]
    chunk_s = seconds("parallel.chunk_seconds")
    workers = plan.workers if plan.workers > 1 else 0
    exhausted = sum(int((~np.isfinite(times)).sum()) for times in samples.values())
    values = {
        "graphs.build_s": (build_s, "s"),
        "graphs.edges_per_s": (_ratio(tracer.edges_built, build_s), "edges/s"),
        "core.flatgraph.prepare_s": (total("core.flatgraph.flat_adjacency"), "s"),
        "core.kernels.async_tick_s": (async_s, "s"),
        "core.kernels.async_ns_per_tick": (
            _ratio(async_s * 1e9, work.get("async.engine.clock_ticks", 0)), "ns"),
        "core.kernels.sync_round_s": (sync_s, "s"),
        "core.kernels.sync_ns_per_contact": (
            _ratio(sync_s * 1e9, work.get("sync.engine.messages_attempted", 0)), "ns"),
        "core.kernels.clock_chunk_s": (clock_s, "s"),
        "core.kernels.clock_ns_per_tick": (
            _ratio(clock_s * 1e9, work.get("clock.engine.clock_ticks", 0)), "ns"),
        "core.kernels.useful_contact_ratio": (
            _ratio(count("engine.messages_delivered"), count("engine.messages_attempted")),
            "ratio"),
        "engine.clock_ticks": (count("engine.clock_ticks"), "count"),
        "engine.rounds": (count("engine.rounds"), "count"),
        "core.batch_engine.self_s": (self_time("core.batch_engine.run_batch"), "s"),
        "engine.kernel_invocations": (count("engine.kernel_invocations"), "count"),
        "core.serial.spread_s": (serial_s, "s"),
        "scenario.adversary_budget_spent": (count("scenario.adversary_budget_spent"), "count"),
        "engine.messages_lost": (count("engine.messages_lost"), "count"),
        "scenarios.budget_exhausted_trials": (float(exhausted), "count"),
        "analysis.montecarlo.self_s": (self_time("analysis.montecarlo.run_trials"), "s"),
        "analysis.serial_share": (_ratio(serial_s, serial_s + batch_s), "ratio"),
        "analysis.trials": (count("analysis.trials"), "count"),
        "analysis.pool.start_s": (total("analysis.pool.start"), "s"),
        "analysis.parallel.call_s": (call_s, "s"),
        "parallel.chunks": (count("parallel.chunks"), "count"),
        "parallel.chunk_seconds": (chunk_s, "s"),
        "analysis.parallel.worker_busy_frac": (_ratio(chunk_s, workers * call_s), "ratio"),
        "analysis.parallel.wait_s": (call_s - chunk_s / workers if workers else 0.0, "s"),
        "parallel.chunk_retries": (count("parallel.chunk_retries"), "count"),
        "parallel.serial_fallbacks": (count("parallel.serial_fallbacks"), "count"),
        "shm.segments": (count("shm.segments"), "count"),
        "shm.segment_bytes": (count("shm.segment_bytes"), "bytes"),
        "shm.sweep_segment_reuses": (count("shm.sweep_segment_reuses"), "count"),
        "telemetry.span_coverage": (tracer.coverage(trial_start, trial_end), "ratio"),
    }
    for name, (value, _) in values.items():
        if not math.isfinite(value):
            raise ValueError(f"layer metric {name} is not finite: {value}")
    return {name: [float(value), unit] for name, (value, unit) in values.items()}


def call_counts(tracer: Tracer, registry: Any) -> dict[str, dict[str, int]]:
    """How many calls each wrapper saw, in the parent and in the workers."""
    return {
        name: {"parent": int(row["parent_calls"]), "worker": int(row["worker_calls"])}
        for name, row in tracer.layer_totals(registry).items()
    }


def missing_layers(workload: str, calls: dict, counters: dict) -> list[str]:
    """Expected spans that saw no call and expected counters that never moved."""
    missing = [
        f"span {name}" for name in sorted(EXPECTED_SPANS[workload])
        if calls[name]["parent"] + calls[name]["worker"] == 0
    ]
    missing += [
        f"counter {name}" for name in EXPECTED_COUNTERS[workload]
        if not counters.get(name)
    ]
    return missing


def worker_table(tracer: Tracer, registry: Any) -> str:
    """Worker-side totals per span name (merged timers), for the report."""
    rows = [f"{'worker-side span (merged timers)':<58} {'calls':>7} {'total_s':>9} {'self_s':>9}"]
    for name, row in tracer.layer_totals(registry).items():
        if row["worker_calls"]:
            rows.append(f"{name:<58} {int(row['worker_calls']):>7d} "
                        f"{row['worker_total_s']:>9.4f} {row['worker_self_s']:>9.4f}")
    return "\n".join(rows) if len(rows) > 1 else ""
