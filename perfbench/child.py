"""One benchmark sample: a fresh process that sets up and runs one pass.

``perfbench/run.py`` starts this module once per sample, so every sample
pays what a user pays from process start: imports, kernel warm-up, pool
start, graph build and ``flat_adjacency``.  The process runs every cell of
its plan, checks every output, and prints one JSON record as its last line
of standard output.  With ``--trace 1`` it also installs the layer
wrappers (``perfbench/tracer.py``) and collects ``telemetry.metrics``.

Times are ``time.monotonic()`` readings, comparable with the launcher's
``--t0`` (both are ``CLOCK_MONOTONIC``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import time
from contextlib import ExitStack, nullcontext
from typing import Any, Optional

import numpy as np

from perfbench import checks, layers
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Plan, build_graph, make_plan, pool_ready, run_cell


def _import_program(src: str) -> None:
    """Import the program from the checkout's ``src`` and nowhere else."""
    import repro

    location = os.path.realpath(os.path.dirname(repro.__file__))
    if not location.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"repro was imported from {location}, not from {src}")


def _vm_hwm_mib(pid: str = "self") -> float:
    """A process's peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus each of its live pool workers."""
    total = _vm_hwm_mib()
    for child in multiprocessing.active_children():
        total += _vm_hwm_mib(str(child.pid))
    return total


def machine_record() -> dict[str, Any]:
    import scipy

    from repro.core.kernels import jit_backend, resolve_backend

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiled = jit_backend.is_compiled()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": resolve_backend(None).BACKEND_NAME,
        "start_method": os.environ.get("REPRO_MP_START_METHOD")
        or multiprocessing.get_start_method(),
        "jit": "compiled and measured" if compiled
        else "numba not installed: the jit kernel paths are not measured",
    }


def _setup(plan: Plan, tracer: Optional[Tracer]) -> dict[str, Any]:
    """Warm the kernels, build the graphs, prepare CSR, start the pool.

    The wrappers go in after the kernel warm-up (whose throwaway batches are
    not workload spans) and before the pool forks its workers.
    """
    from repro.analysis import parallel
    from repro.core import flatgraph
    from repro.core.kernels import warmup_kernels

    warmup_kernels()
    span = nullcontext
    if tracer is not None:
        tracer.install()
        span = tracer.span
    graphs = {name: build_graph(spec) for name, spec in plan.graphs.items()}
    for graph in graphs.values():
        flatgraph.flat_adjacency(graph)
    if plan.workers > 1:
        with span("analysis.pool.start"):
            handle = parallel.get_pool(plan.workers)
            # With the fork start method the first submit starts every
            # worker; each warms its kernels in the pool initializer.
            futures = [handle.submit(pool_ready, i) for i in range(plan.workers)]
            for future in futures:
                future.result()
    return graphs


def run(args: argparse.Namespace) -> dict[str, Any]:
    _import_program(args.src)
    from repro.analysis import pool, shm
    from repro.telemetry.metrics import collecting_metrics

    plan = make_plan(args.workload, args.seed, args.index, args.size)
    tracer = Tracer() if args.trace else None
    references = checks.load_references(args.references)

    samples: dict[int, np.ndarray] = {}
    errors: dict[int, str] = {}
    with ExitStack() as scope:
        scope.callback(pool.shutdown_pool)
        graphs = _setup(plan, tracer)
        registry = scope.enter_context(collecting_metrics()) if tracer is not None else None
        first_call = time.monotonic()
        trial_start = time.perf_counter()
        with shm.sweep_scope() if plan.workers > 1 else nullcontext():
            for index, cell in enumerate(plan.cells):
                try:
                    samples[index] = run_cell(plan, graphs[cell.graph], cell)
                # A cell that raises is a failed cell, reported with its
                # error; the remaining cells still run.
                except Exception as error:  # noqa: BLE001
                    errors[index] = f"{type(error).__name__}: {error}"
        trial_end = time.perf_counter()

        problems: dict[str, list[str]] = {}
        for index, cell in enumerate(plan.cells):
            if index in errors:
                found = [errors[index]]
            else:
                found = checks.check_cell(
                    cell, samples[index], references.get(f"{plan.workload}|{cell.key}")
                )
            if found:
                problems[cell.key] = found
        checked = time.monotonic()
        peak_rss = _peak_rss_mib()

    trials = sum(cell.trials for index, cell in enumerate(plan.cells) if index in samples)
    record: dict[str, Any] = {
        "workload": plan.workload,
        "seed": args.seed,
        "index": args.index,
        "traced": bool(args.trace),
        "setup_s": first_call - args.t0,
        "wall_s": checked - args.t0,
        "trial_phase_s": trial_end - trial_start,
        "trials": trials,
        "trials_per_s": trials / (trial_end - trial_start),
        "peak_rss_mib": peak_rss,
        "cells": len(plan.cells),
        "failed_cells": len(problems),
        "problems": problems,
        "budgets": plan.budgets,
        "workers": plan.workers,
    }
    if tracer is not None:
        record["layers"] = layers.layer_metrics(
            plan, tracer, registry, samples, trial_start, trial_end
        )
        record["calls"] = layers.call_counts(tracer, registry)
        record["missing_layers"] = layers.missing_layers(
            plan.workload, record["calls"], registry.counters
        )
        record["tree"] = tracer.self_time_tree()
        record["worker_table"] = layers.worker_table(tracer, registry)
        record["provenance"] = layers.PROVENANCE
        if args.chrome_trace:
            tracer.write_chrome_trace(args.chrome_trace, {"workload": plan.workload,
                                                          "seed": args.seed})
    if args.index == 0:
        record["machine"] = machine_record()
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--references", default=str(checks.REFERENCES))
    parser.add_argument("--chrome-trace", default=None)
    args = parser.parse_args(argv)
    record = run(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
