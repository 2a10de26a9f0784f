"""Outside-in spans around the calls into each layer's public functions.

The traced run replaces the module-level bindings of the layers' entry
points, at the sites where the program looks them up, with wrappers that
record a span (name, start, end, parent).  Nothing under ``src/`` changes.

* In the benchmark process, spans are kept in memory, written once at the
  end as Chrome Trace Event JSON (which Perfetto and ``chrome://tracing``
  open) and folded into a self-time tree.
* Pool workers are forked from the benchmark process after the wrappers
  are installed, so the same wrappers run there.  A worker cannot hand
  spans back, so it folds each span into the chunk's private
  ``telemetry.metrics`` registry as timers (``trace.total.<name>`` and
  ``trace.self.<name>``) and counters; ``run_trials_parallel`` already
  merges those registries back into the parent's.  Worker numbers are
  therefore per-layer totals, not spans.

A layer's self time is its span minus the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: (span name, module, attribute): each site where the program looks up a
#: layer entry point.  ``flat_adjacency`` and ``run_trials`` are looked up
#: in several modules; each binding is wrapped with the same span name.
SITES = (
    ("graphs.star_graph", "repro.graphs", "star_graph"),
    ("graphs.random_regular_graph", "repro.graphs", "random_regular_graph"),
    ("graphs.async_favoring_gap_graph", "repro.graphs", "async_favoring_gap_graph"),
    ("core.flatgraph.flat_adjacency", "repro.core.flatgraph", "flat_adjacency"),
    ("core.flatgraph.flat_adjacency", "repro.core.batch_engine", "flat_adjacency"),
    ("core.flatgraph.flat_adjacency", "repro.core.sync_engine", "flat_adjacency"),
    ("core.flatgraph.flat_adjacency", "repro.analysis.shm", "flat_adjacency"),
    ("analysis.montecarlo.run_trials", "repro.analysis.montecarlo", "run_trials"),
    ("analysis.montecarlo.run_trials", "repro.analysis.parallel", "run_trials"),
    ("core.batch_engine.run_batch", "repro.analysis.montecarlo", "run_batch"),
    ("core.serial.spread", "repro.analysis.montecarlo", "spread"),
    ("analysis.parallel.run_trials_parallel", "repro.analysis.parallel", "run_trials_parallel"),
    ("analysis.pool.get_pool", "repro.analysis.parallel", "get_pool"),
)

#: Kernel entry points, wrapped on the backend module the run resolves to
#: (``repro.core.kernels.numpy_backend`` without numba), mapped to the
#: kernel family their work is counted under.
KERNELS = {
    "sync_round_step": "sync",
    "async_tick_loop": "async",
    "clock_chunk_consume": "clock",
}

RUN_BATCH = "core.batch_engine.run_batch"

#: Engine counters attributed to the kernel family that ran inside each
#: ``run_batch`` call (deltas of the active registry across the call).
WORK_COUNTERS = ("engine.clock_ticks", "engine.rounds", "engine.messages_attempted")

#: Span names the wrappers produce, i.e. the named layer spans.
SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, _, _ in SITES]
    + [f"core.kernels.{name}" for name in KERNELS]
    + ["analysis.pool.start"]
))


class Tracer:
    """Span recorder for one benchmark process (and, after fork, its workers)."""

    def __init__(self) -> None:
        self.in_worker = False
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.stack: list[list[Any]] = []  # [name, start, child seconds, span index, family, counters]
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.work: dict[str, float] = defaultdict(float)
        self.edges_built = 0
        self.origin = time.perf_counter()
        self._registry: Callable[[], Any] = lambda: None

    # -- installation -------------------------------------------------- #
    def install(self) -> None:
        """Wrap every site; fail loudly when a site no longer exists."""
        from repro.core.kernels import resolve_backend
        from repro.telemetry.metrics import current_metrics

        self._registry = current_metrics
        wrapped: dict[int, Callable] = {}
        for name, module_name, attribute in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(name, original)
            setattr(module, attribute, wrapped[id(original)])
        backend = resolve_backend(None)
        for attribute, family in KERNELS.items():
            original = getattr(backend, attribute)
            setattr(backend, attribute, self.wrap(f"core.kernels.{attribute}", original, family))
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked pool worker inherits the parent's open spans (the pool
        # starts inside a get_pool/run_trials_parallel span); drop them.
        self.in_worker = True
        self.spans, self.stack = [], []

    def wrap(self, name: str, fn: Callable, family: Optional[str] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, family):
                result = fn(*args, **kwargs)
            if name.startswith("graphs.") and not self.in_worker:
                self.edges_built += result.num_edges
            return result

        return wrapper

    # -- recording ----------------------------------------------------- #
    @contextmanager
    def span(self, name: str, family: Optional[str] = None) -> Iterator[None]:
        registry = self._registry()
        index = None
        if not self.in_worker:
            index = len(self.spans)
            parent = self.stack[-1][3] if self.stack else None
            self.spans.append([name, 0.0, 0.0, parent])
        counters = None
        if name == RUN_BATCH and registry is not None:
            counters = {key: registry.counters.get(key, 0) for key in WORK_COUNTERS}
        frame = [name, time.perf_counter(), 0.0, index, None, counters]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            if self.stack:
                self.stack[-1][2] += duration
            if family is not None:
                for outer in reversed(self.stack):
                    if outer[0] == RUN_BATCH:
                        outer[4] = family
                        break
            self._record(frame, end, duration, registry)

    def _record(self, frame: list, end: float, duration: float, registry: Any) -> None:
        name, start, children, index, family, counters = frame
        work = {}
        if counters is not None and family is not None and registry is not None:
            work = {
                f"{family}.{key}": registry.counters.get(key, 0) - before
                for key, before in counters.items()
            }
        if self.in_worker:
            if registry is None:
                return
            registry.add_time(f"trace.total.{name}", duration)
            registry.add_time(f"trace.self.{name}", duration - children)
            for key, amount in work.items():
                registry.count(f"trace.work.{key}", amount)
            return
        self.spans[index][1] = start
        self.spans[index][2] = end
        entry = self.totals[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        for key, amount in work.items():
            self.work[key] += amount

    # -- reading ------------------------------------------------------- #
    def layer_totals(self, registry: Any) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, split by process side."""
        table: dict[str, dict[str, float]] = {}
        timers = registry.timers if registry is not None else {}
        for name in SPAN_NAMES:
            calls, total, self_s = self.totals.get(name, (0, 0.0, 0.0))
            worker_total = timers.get(f"trace.total.{name}", [0.0, 0])
            worker_self = timers.get(f"trace.self.{name}", [0.0, 0])
            table[name] = {
                "parent_calls": calls,
                "parent_total_s": total,
                "parent_self_s": self_s,
                "worker_calls": worker_total[1],
                "worker_total_s": worker_total[0],
                "worker_self_s": worker_self[0],
            }
        return table

    def work_counts(self, registry: Any) -> dict[str, float]:
        """Engine counters per kernel family, parent and worker sides summed."""
        counts = dict(self.work)
        if registry is not None:
            for key, value in registry.counters.items():
                if key.startswith("trace.work."):
                    short = key[len("trace.work."):]
                    counts[short] = counts.get(short, 0) + value
        return counts

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level layer spans."""
        covered = sum(
            min(span_end, end) - max(span_start, start)
            for _, span_start, span_end, parent in self.spans
            if parent is None and span_end > start and span_start < end
        )
        return covered / (end - start) if end > start else 0.0

    def self_time_tree(self) -> str:
        """Indented tree of parent-side spans: calls, total and self seconds."""
        nodes: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        paths: list[tuple] = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            path = (paths[parent] if parent is not None else ()) + (name,)
            paths.append(path)
            node = nodes[path]
            node[0] += 1
            node[1] += end - start
            node[2] += end - start - child_time[index]
        lines = [f"{'span':<58} {'calls':>7} {'total_s':>9} {'self_s':>9}"]
        for path in sorted(nodes):
            calls, total, self_s = nodes[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(f"{label:<58} {calls:>7d} {total:>9.4f} {self_s:>9.4f}")
        return "\n".join(lines)

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the parent-side spans once, as Chrome Trace Event JSON."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"parent": self.spans[parent][0] if parent is not None else None},
            }
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)
