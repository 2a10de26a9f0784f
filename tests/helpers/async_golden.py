"""Fixed-seed outcomes of the batched async global view, pinned to a reference tree.

The numpy async tick loop skips the uninformative ticks between informative
contacts instead of executing them one by one.  That must not change a
single output of the per-trial modes, so this module records, for cells
shaped like the repository benchmark's ``paper-async`` workload (star,
``random_regular_4`` and ``async_gap`` at n = 256, crossed with ``pp-a``,
``pull-a`` and ``push-a``), every per-trial output of
:func:`~repro.core.batch_engine.run_batch`: the spreading time, the executed
tick count, the stop reason, and a SHA-256 digest of the raw float64 bytes
of the ``(trials, n)`` informing-time matrix (exact, but a few lines instead
of thousands of floats).

Regenerate the fixture from a checkout of the reference tree::

    PYTHONPATH=src python tests/helpers/async_golden.py OUT.json

The recorder uses only APIs the reference tree already has, so the same
file runs unchanged against the reference checkout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.core.batch_engine import run_batch
from repro.graphs import async_favoring_gap_graph, star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import spawn_generators

__all__ = ["FIXTURE", "GOLDEN_CELLS", "record_cell"]

#: The committed fixture, written by the reference tree.
FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "async_golden.json"

N = 256
TRIALS = 4


class GoldenCell(NamedTuple):
    id: str
    graph_builder: Callable[[], object]
    protocol: str
    seed: int


_GRAPHS = {
    "star": lambda: star_graph(N),
    "random_regular_4": lambda: random_regular_graph(N, 4, seed=5),
    "async_gap": lambda: async_favoring_gap_graph(N),
}

#: Every (graph, protocol) cell; the source is vertex 0 (the star's centre).
GOLDEN_CELLS = [
    GoldenCell(f"{graph}-{protocol}", builder, protocol, 1000 + 10 * i + j)
    for i, (graph, builder) in enumerate(_GRAPHS.items())
    for j, protocol in enumerate(("pp-a", "pull-a", "push-a"))
]


def record_cell(cell: GoldenCell, backend: Optional[str] = None) -> dict:
    """The per-trial batched outputs of one cell (``backend=None``: the default)."""
    options = {} if backend is None else {"backend": backend}
    batch = run_batch(
        cell.graph_builder(), [0] * TRIALS, cell.protocol,
        rngs=spawn_generators(TRIALS, cell.seed), max_steps=2000 * N,
        on_budget_exhausted="partial", **options,
    )
    informed = np.ascontiguousarray(batch.informed_time, dtype="<f8")
    return {
        "completion_time": batch.completion_time.tolist(),
        "steps": batch.steps.tolist(),
        "termination": list(batch.termination),
        "informed_time_sha256": hashlib.sha256(informed.tobytes()).hexdigest(),
    }


def main(path: str) -> None:
    payload = {cell.id: record_cell(cell) for cell in GOLDEN_CELLS}
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
