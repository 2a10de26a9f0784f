"""Numba ``@njit`` kernels: per-trial CSR loops with no ``(B, n)`` temporaries.

Each kernel re-expresses its numpy counterpart as a compiled per-trial /
per-vertex loop over the CSR ``indptr``/``indices`` arrays.  The loops
consume exactly the randomness the engine pre-drew (contact uniforms per
round, the chunked gap/caller/uniform buffers, the pooled tick blocks) and
are deterministic given it, so:

* **Sync rounds** and the **per-trial async modes** are bit-identical to
  the numpy backend (and therefore to the serial engines) — the full
  ``KERNEL_CASES`` registry replays under ``backend="jit"``.
* The **chunked pooled clock-view consumer** is also draw-order identical:
  the engine resolves each block before the consumer runs, so both
  backends read the same pooled stream.  Blocks with churn/burst epochs
  delegate to the numpy consumer (epoch crossings draw from the pooled
  generator mid-column, which a nopython loop cannot).
* The **pooled async global view** agrees in distribution only: this
  backend drains the shared generator trial by trial, reordering its
  consumption relative to the numpy loop's lockstep refills.

The asynchronous drain returns control to Python with a per-trial status
code whenever a trial needs something a nopython region cannot do — a
buffer refill, an epoch/resample crossing (both draw from
``numpy.random.Generator`` objects) — and the driver resumes it; a
boundary break happens *before* the pending draw is consumed, so the tick
time is recomputed from the identical floats on re-entry.

Without numba the module still imports: the kernels stay plain-Python
(the resolver then routes ``backend="jit"`` to numpy with a warning), and
setting ``REPRO_JIT_PURE_PYTHON=1`` opts into running these loops
uncompiled anyway — slow, but it lets numba-free environments verify the
jit loop semantics against the equivalence harness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro import config
from repro.core.kernels import numpy_backend
from repro.telemetry.metrics import current_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.batch_engine import _ScenarioParts
    from repro.core.kernels import AsyncState

BACKEND_NAME = "jit"

try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _njit = None
    _HAVE_NUMBA = False


def is_compiled() -> bool:
    """Whether the kernels below are actually numba-compiled."""
    return _HAVE_NUMBA


def is_available() -> bool:
    """Whether ``backend="jit"`` resolves here instead of falling back."""
    return _HAVE_NUMBA or config.read_flag("REPRO_JIT_PURE_PYTHON")


def _compile(fn: Callable[..., None]) -> Callable[..., None]:
    if _HAVE_NUMBA:
        return _njit(cache=True)(fn)
    return fn


# Typed dummies standing in for absent optional arrays (numba needs a
# concrete array argument even when the matching has_* flag is False).
_B2 = np.zeros((0, 0), dtype=bool)
_F2 = np.zeros((0, 0), dtype=np.float64)
_F1 = np.zeros(0, dtype=np.float64)
_I64 = np.zeros(0, dtype=np.int64)

# Status codes the asynchronous drain hands back to the Python driver.
_NEED_REFILL = 0
_OVERTIME = 1
_BOUNDARY = 2
_STOPPED = 3


def warmup() -> None:
    """Compilation happens through the engine calls of ``warmup_kernels``."""


# ---------------------------------------------------------------------- #
# Synchronous round step
# ---------------------------------------------------------------------- #
def _sync_round_impl(
    degrees: np.ndarray, start: np.ndarray, indices: np.ndarray,
    draws: np.ndarray, informed: np.ndarray,
    times: np.ndarray, has_times: bool, kept: np.ndarray, has_kept: bool,
    up: np.ndarray, has_up: bool,
    round_time: float, push_allowed: bool, pull_allowed: bool,
    counts: np.ndarray,
) -> None:
    live, n = draws.shape
    snapshot = np.empty(n, dtype=np.bool_)
    for i in range(live):
        for v in range(n):
            snapshot[v] = informed[i, v]
        for v in range(n):
            deg = degrees[v]
            off = int(draws[i, v] * deg)
            if off > deg - 1:
                off = deg - 1
            contact = indices[start[v] + off]
            if has_up and not (up[i, v] and up[i, contact]):
                continue
            if has_kept and not kept[i, v]:
                continue
            if pull_allowed and not snapshot[v] and snapshot[contact]:
                if not informed[i, v]:
                    informed[i, v] = True
                    counts[i] += 1
                if has_times:
                    times[i, v] = round_time
            if push_allowed and snapshot[v] and not snapshot[contact]:
                if not informed[i, contact]:
                    informed[i, contact] = True
                    counts[i] += 1
                if has_times:
                    times[i, contact] = round_time


def _sync_round_dynamic_impl(
    degrees: np.ndarray, start: np.ndarray, indices: np.ndarray,
    draws: np.ndarray, informed: np.ndarray,
    times: np.ndarray, has_times: bool, kept: np.ndarray, has_kept: bool,
    up: np.ndarray, has_up: bool,
    round_time: float, push_allowed: bool, pull_allowed: bool,
    counts: np.ndarray,
) -> None:
    # As _sync_round_impl, against per-trial (live, n) degree/start tables
    # indexing one concatenated neighbor array.
    live, n = draws.shape
    snapshot = np.empty(n, dtype=np.bool_)
    for i in range(live):
        for v in range(n):
            snapshot[v] = informed[i, v]
        for v in range(n):
            deg = degrees[i, v]
            off = int(draws[i, v] * deg)
            if off > deg - 1:
                off = deg - 1
            contact = indices[start[i, v] + off]
            if has_up and not (up[i, v] and up[i, contact]):
                continue
            if has_kept and not kept[i, v]:
                continue
            if pull_allowed and not snapshot[v] and snapshot[contact]:
                if not informed[i, v]:
                    informed[i, v] = True
                    counts[i] += 1
                if has_times:
                    times[i, v] = round_time
            if push_allowed and snapshot[v] and not snapshot[contact]:
                if not informed[i, contact]:
                    informed[i, contact] = True
                    counts[i] += 1
                if has_times:
                    times[i, contact] = round_time


_sync_round = _compile(_sync_round_impl)
_sync_round_dynamic = _compile(_sync_round_dynamic_impl)


def sync_workspace(batch: int, n: int, idx_dtype: type) -> None:
    """The jit round step needs no vectorisation buffers."""
    return None


def sync_round_step(
    csr: tuple,
    draws: np.ndarray,
    kept: Optional[np.ndarray],
    up_live: Optional[np.ndarray],
    informed_live: np.ndarray,
    times_live: Optional[np.ndarray],
    round_index: int,
    push_allowed: bool,
    pull_allowed: bool,
    ws: None,
    counts: np.ndarray,
) -> np.ndarray:
    degrees, _max_offset, start, indices = csr
    new_counts = counts.copy()
    _sync_round(
        degrees, start, indices, draws, informed_live,
        times_live if times_live is not None else _F2, times_live is not None,
        np.ascontiguousarray(kept) if kept is not None else _B2, kept is not None,
        np.ascontiguousarray(up_live) if up_live is not None else _B2, up_live is not None,
        float(round_index), bool(push_allowed), bool(pull_allowed), new_counts,
    )
    return new_counts


def sync_round_step_dynamic(
    stacked: tuple,
    row_offsets_wide: np.ndarray,
    draws: np.ndarray,
    kept: Optional[np.ndarray],
    up_live: Optional[np.ndarray],
    informed_live: np.ndarray,
    times_live: Optional[np.ndarray],
    round_index: int,
    push_allowed: bool,
    pull_allowed: bool,
    ws: None,
    counts: np.ndarray,
) -> np.ndarray:
    degrees_st, start_st, indices_cat = stacked
    new_counts = counts.copy()
    _sync_round_dynamic(
        degrees_st, start_st, indices_cat, draws, informed_live,
        times_live if times_live is not None else _F2, times_live is not None,
        np.ascontiguousarray(kept) if kept is not None else _B2, kept is not None,
        np.ascontiguousarray(up_live) if up_live is not None else _B2, up_live is not None,
        float(round_index), bool(push_allowed), bool(pull_allowed), new_counts,
    )
    return new_counts


# ---------------------------------------------------------------------- #
# Asynchronous ("global" view) tick loop
# ---------------------------------------------------------------------- #
def _async_drain_impl(
    rows: np.ndarray, status: np.ndarray, gaps: np.ndarray,
    callers: np.ndarray, nbr_uniforms: np.ndarray,
    loss_uniforms: np.ndarray, has_loss: bool,
    positions: np.ndarray, buffer_lengths: np.ndarray, now: np.ndarray,
    informed: np.ndarray, times: np.ndarray, has_times: bool,
    num_informed: np.ndarray, target: np.ndarray, completed: np.ndarray,
    completion_time: np.ndarray,
    degrees: np.ndarray, start: np.ndarray, indices: np.ndarray,
    use_tg: bool, tg_degrees: np.ndarray, tg_start: np.ndarray,
    tg_indices: np.ndarray, tg_width: int,
    loss_thresh: np.ndarray, up: np.ndarray, has_up: bool,
    bound: np.ndarray, has_bound: bool,
    has_adaptive: bool, adaptive_p: float, jam_budget: np.ndarray,
    time_budget: float, finite_time_budget: bool, mode_code: int, n: int,
) -> None:
    # Advance each listed trial until it needs the Python driver: a buffer
    # refill (_NEED_REFILL), a boundary crossing (_BOUNDARY — the pending
    # draw is NOT consumed, so re-entry recomputes the identical tick
    # time), the time budget (_OVERTIME — draw consumed, not executed,
    # mirroring the serial engine), or the end of the tick that brings the
    # informed count to the trial's absorbing target (_STOPPED; the target
    # is n unless the scenario can absorb, and only a boundary crossing
    # moves it, so a trial absorbed by a crash stops after executing the
    # pending tick on re-entry).
    for j in range(rows.shape[0]):
        b = rows[j]
        p = positions[b]
        blen = buffer_lengths[b]
        t_now = now[b]
        st = _NEED_REFILL
        while True:
            if p >= blen:
                st = _NEED_REFILL
                break
            gap = gaps[b, p]
            t = t_now + gap
            if finite_time_budget and t > time_budget:
                p += 1
                t_now = t
                st = _OVERTIME
                break
            if has_bound and t >= bound[b]:
                st = _BOUNDARY
                break
            p += 1
            t_now = t
            caller = callers[b, p - 1]
            u = nbr_uniforms[b, p - 1]
            if use_tg:
                vp = b * n + caller
                deg = tg_degrees[vp]
                off = int(u * deg)
                if off > deg - 1:
                    off = deg - 1
                callee = tg_indices[b * tg_width + tg_start[vp] + off]
            else:
                deg = degrees[caller]
                off = int(u * deg)
                if off > deg - 1:
                    off = deg - 1
                callee = indices[start[caller] + off]
            ci = informed[b, caller]
            ce = informed[b, callee]
            if mode_code == 2:
                ok = ci != ce
            elif mode_code == 0:
                ok = ci and not ce
            else:
                ok = (not ci) and ce
            # The up-check precedes the loss-check so the adaptive jammer
            # only sees would-transmit contacts; for plain loss the order is
            # irrelevant (pure conjunction, the draw is consumed either way).
            if ok and has_up and not (up[b, caller] and up[b, callee]):
                ok = False
            if ok and has_loss and loss_uniforms[b, p - 1] < loss_thresh[b]:
                ok = False
            if (
                ok
                and has_adaptive
                and jam_budget[b] > 0
                and loss_uniforms[b, p - 1] < adaptive_p
            ):
                jam_budget[b] -= 1
                ok = False
            if ok:
                if mode_code == 2:
                    target_vertex = callee if ci else caller
                elif mode_code == 0:
                    target_vertex = callee
                else:
                    target_vertex = caller
                informed[b, target_vertex] = True
                if has_times:
                    times[b, target_vertex] = t
                num_informed[b] += 1
            if num_informed[b] >= target[b]:
                if num_informed[b] == n:
                    completed[b] = True
                    completion_time[b] = t
                st = _STOPPED
                break
        positions[b] = p
        now[b] = t_now
        status[j] = st


_async_drain = _compile(_async_drain_impl)


def async_tick_loop(state: "AsyncState") -> None:
    """Drain an :class:`~repro.core.kernels.AsyncState` to completion.

    The compiled drain does all per-tick work; this driver handles
    everything that needs a :class:`numpy.random.Generator` — chunk
    refills via the shared :meth:`AsyncState.draw_chunk` (same draw order
    as the numpy backend) and epoch/resample crossings via
    ``parts.cross_boundaries`` — plus retirements.  A retired trial's row
    costs the drain nothing (it is dropped from the ``rows`` list), so the
    active set is compact by construction.  The stacked-CSR arrays are
    re-fetched every pass: a resample can reallocate them.
    """
    parts = state.parts
    n = state.n
    live = state.live
    if not live.any():
        return
    mode_code = 2 if state.mode == "push-pull" else (0 if state.mode == "push" else 1)
    has_adaptive = parts.adaptive_loss is not None
    adaptive_p = float(parts.adaptive_loss.p) if has_adaptive else 0.0
    jam_budget = parts.jam_budget if has_adaptive else _I64
    lossy = state.loss_uniforms is not None and not has_adaptive
    if lossy:
        thresh = parts.loss_threshold(state.bad)
        loss_thresh = (
            np.full(state.batch, float(thresh))
            if np.isscalar(thresh)
            else np.asarray(thresh, dtype=np.float64)
        )
    else:
        loss_thresh = _F1
    has_bound = state.has_boundaries
    if has_bound:
        bound = np.full(state.batch, np.inf)
        if state.next_epoch is not None:
            np.minimum(bound, state.next_epoch, out=bound)
        if state.next_resample is not None:
            np.minimum(bound, state.next_resample, out=bound)
    else:
        bound = _F1
    times = state.times if state.times is not None else _F2
    has_times = state.times is not None
    up = state.up if state.up is not None else _B2
    has_up = state.up is not None
    loss_arr = state.loss_uniforms if state.loss_uniforms is not None else _F2
    burst = parts.burst
    # Telemetry rides the existing status-code drain: informed-count deltas
    # are observed Python-side at each drain return, so the compiled region
    # and the RNG stream are untouched whether metrics are on or off.
    metrics = current_metrics()

    while True:
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        tg = state.trial_graphs
        if tg is not None:
            tg_degrees, tg_start, tg_indices = tg.degrees, tg.rel_start, tg.indices
            tg_width = tg.width
        else:
            tg_degrees = tg_start = tg_indices = _I64
            tg_width = 0
        status = np.empty(rows.size, dtype=np.int64)
        informed_before = (
            int(state.num_informed[rows].sum()) if metrics is not None else 0
        )
        _async_drain(
            rows, status, state.gaps, state.callers, state.nbr_uniforms,
            loss_arr, lossy,
            state.positions, state.buffer_lengths, state.now,
            state.informed, times, has_times,
            state.num_informed, parts.target, state.completed, state.completion_time,
            state.degrees, state.start, state.indices,
            tg is not None, tg_degrees, tg_start, tg_indices, tg_width,
            loss_thresh, up, has_up, bound, has_bound,
            has_adaptive, adaptive_p, jam_budget,
            state.time_budget, state.finite_time_budget, mode_code, n,
        )
        if metrics is not None:
            metrics.count("engine.drain_returns")
            metrics.count(
                "engine.messages_delivered",
                int(state.num_informed[rows].sum()) - informed_before,
            )
        for j in range(rows.size):
            b = int(rows[j])
            st = int(status[j])
            if st == _STOPPED:
                live[b] = False
                state.steps[b] = state.chunk_base[b] + state.positions[b]
            elif st == _OVERTIME:
                live[b] = False
                state.overtime[b] = True
                state.steps[b] = state.chunk_base[b] + state.positions[b]
            elif st == _BOUNDARY:
                t = float(state.now[b] + state.gaps[b, state.positions[b]])
                parts.cross_boundaries(
                    b, t, state.rng_for(b), n, state.up, state.bad,
                    state.next_epoch, state.next_resample, tg,
                    state.informed,
                )
                next_bound = np.inf
                if state.next_epoch is not None:
                    next_bound = float(state.next_epoch[b])
                if state.next_resample is not None:
                    next_bound = min(next_bound, float(state.next_resample[b]))
                bound[b] = next_bound
                if lossy and burst is not None:
                    loss_thresh[b] = (
                        burst.p_loss_bad if state.bad[b] else burst.p_loss_good
                    )
            else:  # _NEED_REFILL: retire the chunk, then the budget check
                state.chunk_base[b] += state.buffer_lengths[b]
                state.positions[b] = 0
                state.buffer_lengths[b] = 0
                remaining = state.step_budget - int(state.chunk_base[b])
                if remaining <= 0:
                    live[b] = False
                    state.steps[b] = state.chunk_base[b]
                    continue
                chunk = min(state.chunk, remaining)
                state.draw_chunk(state.rng_for(b), b, chunk, b)
                state.buffer_lengths[b] = chunk


# ---------------------------------------------------------------------- #
# Pooled clock-view chunk consumer
# ---------------------------------------------------------------------- #
def _clock_drain_impl(
    rows: np.ndarray, width: int, executed: int, tick_times: np.ndarray,
    callers: np.ndarray, callees: np.ndarray,
    loss_block: np.ndarray, has_loss: bool, loss_prob: float,
    up: np.ndarray, has_up: bool,
    has_adaptive: bool, adaptive_p: float, jam_budget: np.ndarray,
    informed: np.ndarray, times: np.ndarray, has_times: bool,
    num_informed: np.ndarray, target: np.ndarray, steps: np.ndarray,
    completed: np.ndarray, completion_time: np.ndarray,
    live: np.ndarray, now: np.ndarray,
    time_budget: float, finite_time_budget: bool, mode_code: int, n: int,
) -> None:
    for j in range(rows.shape[0]):
        b = rows[j]
        survived = True
        for col in range(width):
            t = tick_times[j, col]
            if finite_time_budget and t > time_budget:
                # The first over-budget event is popped but not executed.
                live[b] = False
                steps[b] = executed + col
                survived = False
                break
            caller = callers[j, col]
            callee = callees[j, col]
            ci = informed[b, caller]
            ce = informed[b, callee]
            if mode_code == 2:
                ok = ci != ce
            elif mode_code == 0:
                ok = ci and not ce
            else:
                ok = (not ci) and ce
            # Up before loss: the adaptive jammer must only see
            # would-transmit contacts (result-identical for plain loss).
            if ok and has_up and not (up[b, caller] and up[b, callee]):
                ok = False
            if ok and has_loss and loss_block[j, col] < loss_prob:
                ok = False
            if (
                ok
                and has_adaptive
                and jam_budget[b] > 0
                and loss_block[j, col] < adaptive_p
            ):
                jam_budget[b] -= 1
                ok = False
            if ok:
                if mode_code == 2:
                    target_vertex = callee if ci else caller
                elif mode_code == 0:
                    target_vertex = callee
                else:
                    target_vertex = caller
                informed[b, target_vertex] = True
                if has_times:
                    times[b, target_vertex] = t
                num_informed[b] += 1
                # Without epochs the absorbing target never moves, so only
                # an informing tick can reach it.
                if num_informed[b] >= target[b]:
                    if num_informed[b] == n:
                        completed[b] = True
                        completion_time[b] = t
                    steps[b] = executed + col + 1
                    live[b] = False
                    survived = False
                    break
        if survived:
            steps[b] = executed + width
            now[b] = tick_times[j, width - 1]


_clock_drain = _compile(_clock_drain_impl)


def clock_chunk_consume(
    rows: np.ndarray,
    executed: int,
    width: int,
    tick_times: np.ndarray,
    callers: np.ndarray,
    callees: np.ndarray,
    loss_block: Optional[np.ndarray],
    informed: np.ndarray,
    times: Optional[np.ndarray],
    num_informed: np.ndarray,
    steps: np.ndarray,
    completed: np.ndarray,
    completion_time: np.ndarray,
    live: np.ndarray,
    now: np.ndarray,
    n: int,
    time_budget: float,
    finite_time_budget: bool,
    mode_pp: bool,
    push_allowed: bool,
    parts: "_ScenarioParts",
    bad: Optional[np.ndarray],
    up: Optional[np.ndarray],
    next_epoch: Optional[np.ndarray],
    pooled_rng: Optional[np.random.Generator],
) -> None:
    """Consume one pre-drawn pooled block; identical results to numpy.

    All block randomness is resolved by the engine before this runs, so
    the compiled per-trial column drain reads the same pooled stream the
    numpy column loop would.  Blocks with epoch boundaries (churn updates
    or a burst channel) delegate to the numpy consumer — the crossings
    draw from ``pooled_rng`` mid-column.
    """
    if next_epoch is not None:
        numpy_backend.clock_chunk_consume(
            rows, executed, width, tick_times, callers, callees, loss_block,
            informed, times, num_informed, steps, completed, completion_time,
            live, now, n, time_budget, finite_time_budget, mode_pp, push_allowed,
            parts, bad, up, next_epoch, pooled_rng,
        )
        return
    mode_code = 2 if mode_pp else (0 if push_allowed else 1)
    has_adaptive = parts.adaptive_loss is not None
    adaptive_p = float(parts.adaptive_loss.p) if has_adaptive else 0.0
    jam_budget = parts.jam_budget if has_adaptive else _I64
    has_loss = loss_block is not None and not has_adaptive
    # Without epochs there is no burst channel, so the threshold is the
    # scalar independent-loss probability.
    loss_prob = float(parts.loss_threshold(bad)) if has_loss else 0.0
    _clock_drain(
        rows, width, int(executed), tick_times,
        np.ascontiguousarray(callers), np.ascontiguousarray(callees),
        loss_block if loss_block is not None else _F2, has_loss, loss_prob,
        np.ascontiguousarray(up) if up is not None else _B2, up is not None,
        has_adaptive, adaptive_p, jam_budget,
        informed, times if times is not None else _F2, times is not None,
        num_informed, parts.target, steps, completed, completion_time, live, now,
        float(time_budget), bool(finite_time_budget), mode_code, n,
    )
