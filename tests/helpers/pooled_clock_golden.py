"""Fixed-seed outcomes of the chunked pooled asynchronous path, pinned to a reference tree.

``run_clock_view_batch(pooled_rng=...)``, like every pooled asynchronous
run on a fixed graph, pre-draws each block of clock ticks from the pooled
generator and hands it to the backend's ``clock_chunk_consume``.  How that
consumer walks the block (tick by tick, or skipping straight to each
trial's next informative tick) must not change a single output wherever the
block's randomness is all there is.  This
module records, for both clock views crossed with push, pull and push–pull
and the scenarios whose crossings draw nothing (none, loss, adaptive loss,
delay, adaptive crash, targeted churn), every per-trial output of the
pooled path: completion flag and time, executed ticks, stop reason, and a
SHA-256 digest of the raw float64 bytes of the ``(trials, n)`` informing
time matrix.  A few extra cells pin, under each view, a ``max_time`` cut, a
``max_steps`` exhaustion, a small block width (``_POOLED_CLOCK_CHUNK``
patched to 7: many block refills) and leaf-source star cells, where nearly
every tick informs.

Churn and burst-loss cells are deliberately *not* pinned: their epoch
crossings draw from per-trial streams spawned off the pooled generator, so
their samples are pinned in distribution only (the KS suites in
``tests/analysis/test_pooled_batch.py``).

Regenerate the fixture from a checkout of the reference tree::

    PYTHONPATH=src python tests/helpers/pooled_clock_golden.py OUT.json

The recorder uses only APIs the reference tree already has, so the same
file runs unchanged against the reference checkout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional
from unittest import mock

import numpy as np

from repro.core import batch_engine
from repro.core.batch_engine import run_clock_view_batch
from repro.graphs import star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.scenarios import (
    AdaptiveCrash,
    AdaptiveLoss,
    Delay,
    MessageLoss,
    TargetedChurn,
)

__all__ = ["FIXTURE", "GOLDEN_CELLS", "record_cell"]

#: The committed fixture, written by the reference tree.
FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "pooled_clock_golden.json"

TRIALS = 6

#: The random-regular cells' source: targeted churn crashes vertices 0-3
#: there, so a low-numbered source would be cut off before its first tick.
SOURCE = 24

VIEWS = ("node_clocks", "edge_clocks")
MODES = ("push", "pull", "push-pull")


class GoldenCell(NamedTuple):
    id: str
    graph_builder: Callable[[], object]
    source: int
    mode: str
    view: str
    seed: int
    scenario: Optional[Any] = None
    options: tuple[tuple[str, Any], ...] = (
        ("max_steps", 20000),
        ("on_budget_exhausted", "partial"),
    )
    #: The block width the cell runs with (``None``: the default).
    chunk: Optional[int] = None


def _rr48() -> object:
    return random_regular_graph(48, 4, seed=3)


def _star32() -> object:
    return star_graph(32)


_SCENARIOS = {
    "none": None,
    "loss": MessageLoss(0.3),
    "adaptive-loss": AdaptiveLoss(p=0.9, budget=12),
    "delay": Delay(low=0.25, high=3.0),
    "adaptive-crash": AdaptiveCrash(budget=3, k=2),
    "targeted-churn": TargetedChurn(0.1),
}


def _matrix() -> list[GoldenCell]:
    cells = []
    seed = 300
    for view in VIEWS:
        for mode in MODES:
            for name, scenario in _SCENARIOS.items():
                seed += 1
                cells.append(
                    GoldenCell(f"{view}-{mode}-{name}", _rr48, SOURCE, mode, view, seed, scenario)
                )
    return cells


def _extras() -> list[GoldenCell]:
    cells = []
    for offset, view in enumerate(VIEWS):
        cells += [
            GoldenCell(
                f"{view}-max-time", _rr48, SOURCE, "push-pull", view, 400 + offset,
                MessageLoss(0.3),
                (("max_time", 1.5), ("on_budget_exhausted", "partial")),
            ),
            GoldenCell(
                f"{view}-max-steps", _star32, 1, "push", view, 410 + offset,
                None, (("max_steps", 150), ("on_budget_exhausted", "partial")),
            ),
            GoldenCell(
                f"{view}-chunk-7", _rr48, SOURCE, "push-pull", view, 420 + offset,
                AdaptiveLoss(p=0.8, budget=6), (), chunk=7,
            ),
            # A leaf source on a star: nearly every tick informs.
            GoldenCell(
                f"{view}-star-leaf-adaptive-crash", _star32, 1, "push-pull", view,
                430 + offset, AdaptiveCrash(budget=4, k=1),
            ),
            GoldenCell(
                f"{view}-star-leaf-loss", _star32, 1, "pull", view,
                440 + offset, MessageLoss(0.3),
            ),
        ]
    return cells


#: Every pinned cell.
GOLDEN_CELLS = _matrix() + _extras()


def record_cell(cell: GoldenCell, backend: Optional[str] = None) -> dict:
    """The per-trial pooled outputs of one cell (``backend=None``: the default)."""
    options = dict(cell.options)
    if backend is not None:
        options["backend"] = backend
    chunk = batch_engine._POOLED_CLOCK_CHUNK if cell.chunk is None else cell.chunk
    with mock.patch.object(batch_engine, "_POOLED_CLOCK_CHUNK", chunk):
        batch = run_clock_view_batch(
            cell.graph_builder(), cell.source, mode=cell.mode, view=cell.view,
            trials=TRIALS, pooled_rng=np.random.default_rng(cell.seed),
            scenario=cell.scenario, **options,
        )
    informed = np.ascontiguousarray(batch.informed_time, dtype="<f8")
    return {
        "completed": batch.completed.tolist(),
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
