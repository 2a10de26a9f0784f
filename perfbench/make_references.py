"""Regenerate ``perfbench/references.json`` with the serial engines.

The references are what the output checks compare each cell against: per
cell, the completed-trial count, mean and sd of the spreading time, from
``run_trials(..., batch=False)`` (the serial ``core.sync_engine`` and
``core.async_engine``) at a seed the benchmark runs never use.  Random
graph kinds pool several graph instances, so the reference spread includes
the instance-to-instance variation a benchmark run sees.

Usage, from the repository root (takes a few minutes)::

    PYTHONPATH=src:. python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.checks import REFERENCES, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, GraphSpec, build_graph, make_plan  # noqa: E402

#: Never a ``--seed`` of a benchmark run: references must be independent
#: draws, not replays of the runs they check.
REFERENCE_SEED = 2_147_483_647

#: (instances of each random graph kind, trials per instance) per workload.
FULL_REFERENCE_SIZES = {
    "paper-async": (16, 16),
    "scenario-sweep": (16, 16),
    "large-n-sync": (3, 3),
}


def reference_cells(workload: str, size: str, instances: int, trials: int) -> dict:
    """Serial-engine summaries of every cell of ``workload`` at ``size``."""
    from repro.analysis import montecarlo

    plan = make_plan(workload, REFERENCE_SEED, index=0, size=size)
    seeds = iter(
        int(x) for x in np.random.SeedSequence([REFERENCE_SEED, 1]).generate_state(
            8192, dtype=np.uint32
        )
    )
    built = {}
    for name, spec in plan.graphs.items():
        count = instances if spec.seed is not None else 1
        built[name] = [
            build_graph(GraphSpec(spec.kind, spec.n, next(seeds) if spec.seed is not None else None))
            for _ in range(count)
        ]
    summaries = {}
    for cell in plan.cells:
        graphs = built[cell.graph]
        per_instance = trials * instances // len(graphs)
        summaries[cell.key] = summarize([
            montecarlo.run_trials(
                graph, cell.source, cell.protocol, trials=per_instance, seed=next(seeds),
                batch=False, scenario=cell.scenario, engine_options=cell.engine_options(),
            ).as_array()
            for graph in graphs
        ])
    return summaries


def main() -> int:
    cells = {}
    for workload in WORKLOADS:
        started = time.perf_counter()
        instances, trials = FULL_REFERENCE_SIZES[workload]
        for key, summary in reference_cells(workload, "full", instances, trials).items():
            cells[f"{workload}|{key}"] = summary
        print(f"{workload}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    document = {
        "about": "serial-engine (batch=False) references for perfbench output checks",
        "seed": REFERENCE_SEED,
        "sizes": FULL_REFERENCE_SIZES,
        "cells": cells,
    }
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
