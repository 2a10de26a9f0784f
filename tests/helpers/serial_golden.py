"""Fixed-seed outcomes of the serial asynchronous engine, pinned to a reference tree.

:func:`~repro.core.async_engine.run_asynchronous` is the oracle every batched
and pooled asynchronous path is checked against, so its per-trial output
must not move when its internals are reorganised.  This module records, for
every view (``global``, ``node_clocks``, ``edge_clocks``) crossed with every
mode (push, pull, push–pull) and every runtime scenario family (plus one
composition), every field of the returned
:class:`~repro.core.result.SpreadingResult` that a refactor could disturb:
informing times, parents, infection kinds, step and contact counts, the
adaptive adversary's spend, the stop reason, and a SHA-256 digest of the
full contact trace (exact, but one line instead of thousands of events).
A few extra cells pin, under each view, a ``max_time`` cut, a
``max_steps`` exhaustion, an absorbed trial and a run long enough to cross
the global view's refill block.

Regenerate the fixture from a checkout of the reference tree::

    PYTHONPATH=src python tests/helpers/serial_golden.py OUT.json

The recorder uses only public APIs the reference tree already has, so the
same file runs unchanged against the reference checkout.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from repro.core.async_engine import run_asynchronous
from repro.graphs import star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import spawn_generators
from repro.scenarios import (
    AdaptiveCrash,
    AdaptiveLoss,
    BurstLoss,
    Delay,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
    TargetedChurn,
)

__all__ = ["FIXTURE", "GOLDEN_CELLS", "record_cell"]

#: The committed fixture, written by the reference tree.
FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "serial_golden.json"

#: Sources simulated per cell (one spawned generator each).
SOURCES = (0, 5)

VIEWS = ("global", "node_clocks", "edge_clocks")
MODES = ("push", "pull", "push-pull")


class GoldenCell(NamedTuple):
    id: str
    graph_builder: Callable[[], object]
    mode: str
    view: str
    seed: int
    scenario: Optional[Any] = None
    options: tuple[tuple[str, Any], ...] = (
        ("max_steps", 4000),
        ("on_budget_exhausted", "partial"),
    )


def _rr24() -> object:
    return random_regular_graph(24, 3, seed=2)


_SCENARIOS = {
    "none": None,
    "loss": MessageLoss(0.3),
    "burst-loss": BurstLoss(p_gb=0.3, p_bg=0.5, p_loss_bad=0.8),
    "churn": NodeChurn(0.15, 0.5),
    "targeted-churn": TargetedChurn(0.2),
    "adaptive-crash": AdaptiveCrash(budget=3, k=2),
    "adaptive-loss": AdaptiveLoss(p=0.9, budget=5),
    "delay": Delay(low=0.25, high=3.0),
    "dynamic": DynamicGraph(FamilyResampler("erdos_renyi"), period=2),
    "composed": AdaptiveLoss(p=0.7, budget=4) | NodeChurn(0.1, 0.6) | Delay(low=0.5, high=2.0),
}


def _matrix() -> list[GoldenCell]:
    cells = []
    seed = 100
    for view in VIEWS:
        for mode in MODES:
            for name, scenario in _SCENARIOS.items():
                seed += 1
                if name == "dynamic" and view == "edge_clocks":
                    continue  # the edge view rejects dynamic graphs
                cells.append(
                    GoldenCell(f"{view}-{mode}-{name}", _rr24, mode, view, seed, scenario)
                )
    return cells


def _extras() -> list[GoldenCell]:
    cells = []
    for offset, view in enumerate(VIEWS):
        cells += [
            GoldenCell(
                f"{view}-max-time", _rr24, "push-pull", view, 200 + offset,
                MessageLoss(0.3),
                (("max_time", 1.5), ("on_budget_exhausted", "partial")),
            ),
            # Past the global view's 4096-tick refill block.
            GoldenCell(
                f"{view}-long", lambda: star_graph(48), "push", view, 230 + offset,
                MessageLoss(0.2), (),
            ),
            GoldenCell(
                f"{view}-max-steps", lambda: star_graph(30), "push", view, 210 + offset,
                None, (("max_steps", 150), ("on_budget_exhausted", "partial")),
            ),
            # The degree ranking crashes the star's centre: a leaf source is
            # cut off before the first contact.
            GoldenCell(
                f"{view}-absorbed", lambda: star_graph(20), "pull", view, 220 + offset,
                TargetedChurn(0.05),
                (("max_steps", 2000), ("on_budget_exhausted", "partial")),
            ),
        ]
    cells.append(
        GoldenCell("global-long-plain", lambda: star_graph(48), "push", "global", 240, None, ())
    )
    return cells


#: Every pinned cell.
GOLDEN_CELLS = _matrix() + _extras()


def _trace_digest(trace) -> str:
    rows = [
        (event.time.hex(), int(event.caller), int(event.callee),
         None if event.informed is None else int(event.informed), event.kind)
        for event in trace
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def record_cell(cell: GoldenCell) -> list[dict]:
    """Every refactor-sensitive output of each trial of one cell."""
    graph = cell.graph_builder()
    trials = []
    for source, rng in zip(SOURCES, spawn_generators(len(SOURCES), cell.seed)):
        result = run_asynchronous(
            graph, source, mode=cell.mode, view=cell.view, seed=rng,
            scenario=cell.scenario, record_trace=True, **dict(cell.options),
        )
        trials.append(
            {
                "informed_time": list(result.informed_time),
                "parent": [int(p) for p in result.parent],
                "infection_kind": list(result.infection_kind),
                "steps": result.steps,
                "push_infections": result.push_infections,
                "pull_infections": result.pull_infections,
                "total_contacts": result.total_contacts,
                "adversary_budget_spent": result.adversary_budget_spent,
                "termination": result.termination,
                "trace_sha256": _trace_digest(result.trace),
            }
        )
    return trials


def main(path: str) -> None:
    payload = {cell.id: record_cell(cell) for cell in GOLDEN_CELLS}
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
