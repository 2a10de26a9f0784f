"""The skip-ahead async tick loop at its window edges, against the serial engine.

The numpy backend's async global-view loop scans a window of each trial's
buffered contacts and jumps straight to the first informative one (or to
the first tick that reaches a pending boundary or passes ``max_time``).  A
mistake at any edge of that window — a buffer end, the time budget, an
epoch or resample boundary, a suppressed informative contact — would show
as a per-trial divergence from the serial engine, which executes every
tick.  Each case runs on both backends (the jit loop uncompiled when numba
is absent) and compares every per-trial output exactly; a fixture recorded
by a tree with the one-tick-per-iteration loop pins the benchmark-shaped
cells as well.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from helpers.async_golden import FIXTURE, GOLDEN_CELLS, record_cell
from helpers.equivalence import assert_batch_matches_serial, case_ids
from repro.core.async_engine import run_asynchronous
from repro.graphs import complete_graph, cycle_graph, star_graph
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

BACKENDS = ["numpy", "jit"]

#: Ticks per refill chunk of the global view (serial and batched alike).
CHUNK = 4096


def _rr(n: int):
    return lambda: random_regular_graph(n, 4, seed=3)


# (id, protocol, graph builder, sources, seed, scenario, options)
EDGE_CASES = [
    # Still spreading at the first buffer's end (a 200-cycle takes tens of
    # thousands of ticks), so windows near it straddle it; the second chunk
    # is only 3 ticks long.
    ("straddles-buffer-end", "pull-a", lambda: cycle_graph(200), (0, 5, 11), 3,
     None, {"max_steps": CHUNK + 3, "on_budget_exhausted": "partial"}),
    # Completes only after a few buffer ends, so a window that overran one
    # would show in every later informing time.
    ("spreads-across-buffer-ends", "pull-a", lambda: cycle_graph(100), (0, 7), 4,
     None, {}),
    ("max-time-in-window", "pp-a", _rr(64), (0, 1, 2, 3), 5,
     None, {"max_time": 1.37, "on_budget_exhausted": "partial"}),
    ("max-time-mid-spread-push", "push-a", lambda: star_graph(40), (0, 1, 2), 7,
     None, {"max_time": 2.5, "on_budget_exhausted": "partial"}),
    ("churn-epoch-in-window", "pp-a", _rr(64), (0, 1, 2), 11,
     NodeChurn(0.2, 0.5), {"max_steps": 3000, "on_budget_exhausted": "partial"}),
    ("burst-flip-in-window", "push-a", _rr(64), (0, 1, 2), 13,
     BurstLoss(p_gb=0.4, p_bg=0.4, p_loss_bad=0.9), {"on_budget_exhausted": "partial"}),
    ("resample-in-window", "pull-a", _rr(48), (0, 1, 2), 17,
     DynamicGraph(FamilyResampler("erdos_renyi"), period=1),
     {"on_budget_exhausted": "partial"}),
    ("resample-and-epoch", "pp-a", _rr(48), (0, 1), 19,
     DynamicGraph(FamilyResampler("erdos_renyi"), period=2) | NodeChurn(0.1, 0.6)
     | MessageLoss(0.2), {"on_budget_exhausted": "partial"}),
    ("adaptive-loss-jammer", "pp-a", _rr(64), (0, 1, 2), 23,
     AdaptiveLoss(p=0.9, budget=12), {}),
    ("adaptive-crash-absorbs", "push-a", _rr(48), (0, 1, 2), 29,
     AdaptiveCrash(budget=3, k=2), {"max_steps": 20000, "on_budget_exhausted": "partial"}),
    ("targeted-churn-loss", "pull-a", lambda: star_graph(30), (1, 2, 3), 31,
     TargetedChurn(0.1) | MessageLoss(0.3),
     {"max_steps": 6000, "on_budget_exhausted": "partial"}),
    ("delay", "push-a", _rr(64), (0, 1, 2), 37, Delay(low=0.25, high=3.0), {}),
    ("delay-loss-max-time", "pull-a", lambda: complete_graph(32), (0, 1), 41,
     Delay(low=0.5, high=2.0) | MessageLoss(0.4),
     {"max_time": 0.9, "on_budget_exhausted": "partial"}),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("record_times", [True, False], ids=["times", "no-times"])
@pytest.mark.parametrize(
    "case", EDGE_CASES, ids=[case[0] for case in EDGE_CASES]
)
def test_window_edges_match_serial(case, record_times, backend):
    _, protocol, builder, sources, seed, scenario, options = case
    assert_batch_matches_serial(
        builder(), list(sources), protocol, seed, backend=backend,
        record_times=record_times, scenario=scenario, **options,
    )


def _last_slot_source(n: int, seed: int) -> int:
    """A source whose first tick as caller is the first chunk's last slot.

    Replays the global view's first chunk draws (gaps, then callers) of the
    first spawned generator and returns the caller of tick ``CHUNK - 1`` if
    that vertex never called earlier.  Under push only the source's own
    calls are informative, so that tick is the trial's first informative
    one (the test below checks this through the engine itself).
    """
    rng = spawn_generators(1, seed)[0]
    rng.exponential(1.0 / n, CHUNK)
    callers = rng.integers(0, n, CHUNK)
    last = int(callers[-1])
    assert last not in callers[:-1].tolist()
    return last


@pytest.mark.parametrize("backend", BACKENDS)
def test_first_informative_tick_in_last_buffer_slot(backend):
    n, seed = 50_000, 2
    graph = cycle_graph(n)
    source = _last_slot_source(n, seed)
    partial = {"on_budget_exhausted": "partial"}
    # The premise, through the serial engine: nothing happens in the first
    # CHUNK - 1 ticks and the CHUNK-th tick informs a vertex.
    rng = spawn_generators(1, seed)[0]
    before = run_asynchronous(graph, source, mode="push", seed=rng,
                              max_steps=CHUNK - 1, **partial)
    assert before.num_informed == 1
    rng = spawn_generators(1, seed)[0]
    at = run_asynchronous(graph, source, mode="push", seed=rng,
                          max_steps=CHUNK, **partial)
    assert at.num_informed == 2
    for max_steps in (CHUNK, CHUNK + 1, CHUNK + 40):
        batched = assert_batch_matches_serial(
            graph, [source], "push-a", seed, backend=backend, max_steps=max_steps,
            **partial,
        )
        assert int(np.isfinite(batched.informed_time[0]).sum()) >= 2


# --------------------------------------------------------------------- #
# Benchmark-shaped cells, pinned to a tree that executed every tick
# --------------------------------------------------------------------- #
GOLDEN = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=case_ids(GOLDEN_CELLS))
def test_benchmark_cells_match_reference_tree(cell, backend):
    assert record_cell(cell, backend) == GOLDEN[cell.id]


def test_reference_cells_cover_every_graph_and_mode():
    assert set(GOLDEN) == {cell.id for cell in GOLDEN_CELLS}
    assert {cell.protocol for cell in GOLDEN_CELLS} == {"pp-a", "push-a", "pull-a"}
    assert len(GOLDEN_CELLS) == 9


def test_window_width_follows_batch_width_and_hit_rate():
    """Wide scans for narrow batches with rare informative contacts, narrow
    ones for wide batches mid-spread (the width never affects a result)."""
    from repro.core.kernels.numpy_backend import _WINDOWS, _window_width

    assert _window_width(64, 0.06) >= 16
    assert _window_width(1024, 0.15) <= 8
    assert _window_width(1, 0.0) == _WINDOWS[-1]
    assert _window_width(4096, 0.9) == 1
    widths = [_window_width(rows, 0.1) for rows in (1, 16, 256, 4096)]
    assert widths == sorted(widths, reverse=True)
