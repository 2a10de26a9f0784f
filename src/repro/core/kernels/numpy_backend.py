"""Reference NumPy kernels: the batch engine's vectorised hot loops.

The synchronous round step keeps the engine's historical array tricks
(narrow-dtype gathers, ``casting="unsafe"`` contact arithmetic,
preallocated round buffers).  The two asynchronous loops, the global
view's tick loop and the pooled clock-view block consumer, differ from a
plain one-tick-per-iteration loop in ways that change no result of the
draws they consume:

* they *compact* retired trials out of their working set instead of
  masking them, so straggler-dominated workloads stop paying full-batch
  gathers per tick;
* they *skip ahead*: each iteration moves every live trial straight to its
  next informative contact (or boundary / over-time tick), since the
  contacts in between cannot change any state.

The tick loop refills each trial's buffers from the trial's own generator
(a pooled run reaches it with streams spawned from the pooled generator),
so when a trial refills never changes what it draws.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.kernels import TickExchange
from repro.telemetry.metrics import current_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.batch_engine import _ScenarioParts
    from repro.core.kernels import AsyncState

BACKEND_NAME = "numpy"

#: Compact the async working set only once at least this many rows retired
#: (and they are the majority): each compaction copies the survivors, so a
#: threshold keeps the total copy volume linear in the batch size instead
#: of quadratic under one-at-a-time straggler retirement.
_COMPACT_MIN_RETIRED = 32

#: The widths (buffered contacts per live row) the async loop's scan for
#: the next informative tick chooses from, iteration by iteration.
_WINDOWS = (1, 2, 4, 8, 16, 32, 64)

#: Slot offsets ``0 .. width - 1`` down axis 0 of a scan, per window width.
_SLOTS = {width: np.arange(width, dtype=np.int64)[:, None] for width in _WINDOWS}

#: Cost model of one scan iteration, in units of one scanned slot of one
#: row: a fixed per-iteration overhead (the ~100 array calls) shared by the
#: live rows, plus the selected tick's body per row.  Fitted on a 2-CPU
#: x86 box over n = 256..1024 random regular graphs, 24..1024 trials; only
#: the speed depends on it, never a result.
_ITERATION_OVERHEAD = 1100.0
_BODY_COST = 2.0


@functools.lru_cache(maxsize=4096)
def _window_width(rows: int, hit_rate: float) -> int:
    """The scan width with the least expected cost per tick advanced.

    With informative contacts at rate ``hit_rate`` a row scanning ``w``
    slots advances ``(1 - (1 - hit_rate) ** w) / hit_rate`` ticks, for an
    iteration cost of ``_ITERATION_OVERHEAD / rows + _BODY_COST + w`` per
    row: wide windows pay off for few rows and rare informative contacts,
    narrow ones for wide batches mid-spread.
    """
    miss = 1.0 - hit_rate
    fixed = _ITERATION_OVERHEAD / rows + _BODY_COST
    best, best_cost = _WINDOWS[-1], np.inf
    for width in _WINDOWS:
        advance = 1.0 - miss**width
        if advance > 0.0 and (fixed + width) / advance < best_cost:
            best, best_cost = width, (fixed + width) / advance
    return best


def warmup() -> None:
    """Nothing to compile: the numpy kernels are ready at import."""


# ---------------------------------------------------------------------- #
# Synchronous round step
# ---------------------------------------------------------------------- #
class SyncWorkspace:
    """Preallocated per-round buffers (sliced to the live row count): the
    round loop reuses them instead of allocating ~n * live temporaries
    every round.  ``row_offsets`` turns (row, vertex) pairs into indices of
    the raveled (live, n) arrays; the whole round works in that flat
    address space."""

    __slots__ = ("offsets", "contact", "contacted", "pull", "push", "row_offsets")

    def __init__(self, batch: int, n: int, idx_dtype: type) -> None:
        self.offsets = np.empty((batch, n), dtype=idx_dtype)
        self.contact = np.empty((batch, n), dtype=idx_dtype)
        self.contacted = np.empty((batch, n), dtype=bool)
        self.pull = np.empty((batch, n), dtype=bool)
        self.push = np.empty((batch, n), dtype=bool)
        self.row_offsets = (np.arange(batch, dtype=idx_dtype) * idx_dtype(n))[:, None]


def sync_workspace(batch: int, n: int, idx_dtype: type) -> SyncWorkspace:
    return SyncWorkspace(batch, n, idx_dtype)


def _exchange(
    contact_flat: np.ndarray,
    kept: Optional[np.ndarray],
    up_live: Optional[np.ndarray],
    informed_live: np.ndarray,
    times_live: Optional[np.ndarray],
    round_index: int,
    push_allowed: bool,
    pull_allowed: bool,
    ws: SyncWorkspace,
) -> np.ndarray:
    """The round-snapshot push/pull exchange shared by both contact paths."""
    live = informed_live.shape[0]
    informed_flat = informed_live.reshape(-1)
    contacted_informed = ws.contacted[:live]
    np.take(informed_flat, contact_flat, out=contacted_informed, mode="clip")
    exchange_ok = None
    if up_live is not None:
        # Both endpoints must be up: crashed vertices neither initiate
        # nor answer.
        exchange_ok = up_live & np.take(up_live.reshape(-1), contact_flat, mode="clip")
    if kept is not None:
        exchange_ok = kept if exchange_ok is None else exchange_ok & kept

    # Everything below reads the round-start snapshot of the informed
    # set before mutating it.  A flat position is its own "caller"
    # index, so the pull update is a plain elementwise OR with the
    # contacted statuses (a no-op on already-informed callers), and
    # push infections scatter at the contacted positions of informed
    # callers (a no-op on already-informed targets, so the snapshot
    # mask `informed > contacted` drops them before the scatter).
    push_targets = None
    if push_allowed:
        push_mask = np.greater(informed_live, contacted_informed, out=ws.push[:live])
        if exchange_ok is not None:
            push_mask &= exchange_ok
        push_targets = contact_flat[push_mask]
    if times_live is not None:
        times_flat = times_live.reshape(-1)
        if pull_allowed:
            pull_mask = np.less(informed_live, contacted_informed, out=ws.pull[:live])
            if exchange_ok is not None:
                pull_mask &= exchange_ok
            np.copyto(times_live, float(round_index), where=pull_mask)
        if push_targets is not None:
            times_flat[push_targets] = float(round_index)
    if pull_allowed:
        if exchange_ok is None:
            informed_live |= contacted_informed
        else:
            informed_live |= np.logical_and(
                contacted_informed, exchange_ok, out=ws.pull[:live]
            )
    if push_targets is not None:
        informed_flat[push_targets] = True

    return informed_live.sum(axis=1)


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
    ws: SyncWorkspace,
    counts: np.ndarray,
) -> np.ndarray:
    """One synchronous round over the shared static CSR.

    ``csr`` is the engine's narrow ``(degrees, max_offset, start, indices)``
    tuple; ``draws`` the round's ``(live, n)`` contact uniforms; ``kept``
    the precomputed loss mask (or ``None``).  Mutates ``informed_live`` /
    ``times_live`` in place and returns the new per-trial informed counts
    (``counts``, the counts at round start, is unused here — the vectorised
    path recounts; the jit path increments it).
    """
    degrees_nw, max_offset_nw, start_nw, indices_nw = csr
    live = draws.shape[0]
    # Contact selection, identical arithmetic to
    # FlatAdjacency.random_neighbors_all but on narrow dtypes (the
    # unsafe cast truncates toward zero exactly like .astype, and the
    # 'clip' take mode skips bounds checks on indices that are in
    # range by construction).
    offsets = ws.offsets[:live]
    np.multiply(draws, degrees_nw, out=offsets, casting="unsafe")
    np.minimum(offsets, max_offset_nw, out=offsets)
    offsets += start_nw
    contact_flat = ws.contact[:live]
    np.take(indices_nw, offsets, out=contact_flat, mode="clip")
    contact_flat += ws.row_offsets[:live]  # flat index of each contacted vertex
    return _exchange(
        contact_flat, kept, up_live, informed_live, times_live,
        round_index, push_allowed, pull_allowed, ws,
    )


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
    ws: SyncWorkspace,
    counts: np.ndarray,
) -> np.ndarray:
    """One synchronous round against per-trial stacked CSRs (dynamic graphs).

    Same contact arithmetic as :func:`sync_round_step` but the ``stacked``
    ``(degrees, start, indices)`` tables are per-trial and the start
    offsets are already absolute into the concatenated neighbor array.
    """
    degrees_st, start_st, indices_cat = stacked
    offsets_wide = (draws * degrees_st).astype(np.int64)
    np.minimum(offsets_wide, degrees_st - 1, out=offsets_wide)
    offsets_wide += start_st
    contact_flat = indices_cat[offsets_wide]
    contact_flat += row_offsets_wide
    return _exchange(
        contact_flat, kept, up_live, informed_live, times_live,
        round_index, push_allowed, pull_allowed, ws,
    )


# ---------------------------------------------------------------------- #
# Asynchronous ("global" view) tick loop
# ---------------------------------------------------------------------- #
def async_tick_loop(state: "AsyncState") -> None:
    """Drain an :class:`~repro.core.kernels.AsyncState` to completion.

    Each iteration advances every live trial to its *next informative
    tick*, not by one tick.  A row scans its next few buffered contacts
    (:func:`_window_width` picks how many) against its current informed
    set and stops at the first contact with exactly the endpoint pattern
    the mode can use (push–pull: one endpoint informed; push: caller
    informed, callee not; pull: the reverse), at the first tick reaching
    its pending epoch/resample boundary, at the first tick past
    ``max_time``, or at its buffer end.
    The contacts before that one change nothing — loss, crashes and the
    adaptive jammer only ever suppress informative contacts — so the loop
    moves ``positions`` and ``now`` past them (``now`` by a sequential
    cumulative sum, bit-identical to the serial ``now += gap``) and runs
    the one selected tick through the boundary / loss / up-mask / jam /
    exchange / retire body.  Every draw is the one the serial engine
    makes, in its order, so the per-trial modes stay bit-identical.

    Retired trials are *compacted* out of the working set instead of
    masked: row ``i`` of the local buffer arrays belongs to trial
    ``ids[i]``, and whenever at least half of the local rows (and at least
    ``_COMPACT_MIN_RETIRED`` of them) have retired, the survivors are
    copied down, in order.  Per-trial outputs
    (``informed`` / ``times`` / ``steps`` / ``completed`` / …) stay
    absolute; ``steps`` is recorded at each trial's retirement.  A trial
    retires at the end of the tick that brings its informed count to its
    absorbing target (``parts.target``; always ``n`` unless the scenario
    can absorb) — by informing someone, or by a crash at a boundary the
    tick crossed.
    """
    n = state.n
    chunk_size = state.chunk
    parts = state.parts
    trial_graphs = state.trial_graphs
    step_budget = state.step_budget
    time_budget = state.time_budget
    finite_time_budget = state.finite_time_budget
    has_boundaries = state.has_boundaries
    boundary_floor = state.boundary_floor
    next_epoch = state.next_epoch
    next_resample = state.next_resample
    up = state.up
    bad = state.bad
    degrees_nw = state.degrees
    max_offset_nw = state.max_offset
    start_nw = state.start
    indices_nw = state.indices

    # Absolute per-trial state (never compacted; scattered into by id).
    live = state.live
    if not live.any():
        return
    num_informed = state.num_informed
    overtime = state.overtime
    steps_out = state.steps

    # Local (compacted) working set: row i belongs to trial ids[i].  The
    # locals start as the state's own arrays and only become copies at the
    # first compaction; trials absorbed before their first tick start out
    # retired.
    ids = np.arange(state.batch, dtype=np.int64)
    alive = live.copy()
    retired = state.batch - int(np.count_nonzero(alive))
    gaps = state.gaps
    callers = state.callers
    nbr_uniforms = state.nbr_uniforms
    loss_uniforms = state.loss_uniforms
    positions = state.positions
    buffer_lengths = state.buffer_lengths
    chunk_base = state.chunk_base
    now = state.now
    local_gens = list(state.generators)

    # Flat views of the per-trial buffers: the loop gathers through 1-D
    # np.take (and scatters through flat indices), which skips the 2-D
    # fancy-indexing machinery on the hottest lines.
    gaps_flat = gaps.reshape(-1)
    callers_flat = callers.reshape(-1)
    nbr_flat = nbr_uniforms.reshape(-1)
    loss_flat = loss_uniforms.reshape(-1) if loss_uniforms is not None else None

    def _compact() -> None:
        nonlocal ids, alive, retired, gaps, callers, nbr_uniforms, loss_uniforms
        nonlocal positions, buffer_lengths, chunk_base, now, local_gens
        nonlocal gaps_flat, callers_flat, nbr_flat, loss_flat
        keep = np.flatnonzero(alive)
        ids = ids[keep]
        gaps = gaps[keep]
        callers = callers[keep]
        nbr_uniforms = nbr_uniforms[keep]
        positions = positions[keep]
        buffer_lengths = buffer_lengths[keep]
        chunk_base = chunk_base[keep]
        now = now[keep]
        local_gens = [local_gens[i] for i in keep]
        alive = np.ones(ids.size, dtype=bool)
        retired = 0
        gaps_flat = gaps.reshape(-1)
        callers_flat = callers.reshape(-1)
        nbr_flat = nbr_uniforms.reshape(-1)
        if loss_uniforms is not None:
            loss_uniforms = loss_uniforms[keep]
            loss_flat = loss_uniforms.reshape(-1)

    def _compact_due() -> bool:
        return retired >= _COMPACT_MIN_RETIRED and retired * 2 >= ids.size

    rows = np.flatnonzero(alive)
    # Telemetry is observational only: deliveries are counted from informed
    # deltas the loop computes anyway, so no draw order or state changes.
    metrics = current_metrics()
    exchange = TickExchange(
        state.informed, state.times, up, num_informed, state.completed,
        state.completion_time, live, state.mode, parts, bad, metrics,
    )
    informed_flat = exchange.informed_flat
    # Index bases derived from `rows` (flat positions into the local
    # buffers and the absolute (B, n) state), recomputed only when the
    # live set changes.
    pos_base = row_base = w_base = abs_rows = None
    tg_width = trial_graphs.width if trial_graphs is not None else None
    column = np.arange(0, dtype=np.int64)
    # Decaying counts of scan stops and scanned slots: the running estimate
    # of the informative-contact rate the window width is chosen for.
    stops_seen, slots_seen = 1.0, 16.0
    while rows.size:
        at_boundary = positions.take(rows) >= buffer_lengths.take(rows)
        if at_boundary.any():
            if metrics is not None:
                metrics.count("engine.drain_returns", int(at_boundary.sum()))
            for l in rows[at_boundary]:
                # The exhausted chunk moves into the retired-tick count
                # whether or not the trial goes on; `positions` always
                # restarts from the head of the (possibly new) buffer.
                chunk_base[l] += buffer_lengths[l]
                positions[l] = 0
                buffer_lengths[l] = 0
                remaining = step_budget - int(chunk_base[l])
                if remaining <= 0:
                    trial = int(ids[l])
                    live[trial] = False
                    steps_out[trial] = chunk_base[l]
                    alive[l] = False
                    retired += 1
                    continue
                chunk = min(chunk_size, remaining)
                state.draw_chunk(
                    local_gens[l], int(ids[l]), chunk, l,
                    gaps, callers, nbr_uniforms, loss_uniforms,
                )
                buffer_lengths[l] = chunk
                positions[l] = 0
            keep_mask = alive[rows]
            if not keep_mask.all():
                rows = rows[keep_mask]
                pos_base = None
                if rows.size and _compact_due():
                    _compact()
                    rows = np.flatnonzero(alive)
            if rows.size == 0:
                break

        if pos_base is None:
            pos_base = rows * chunk_size
            abs_rows = ids.take(rows)
            row_base = abs_rows * n
            if trial_graphs is not None:
                tg_width = trial_graphs.width
                w_base = abs_rows * tg_width
        m = rows.size
        if column.size != m:
            column = np.arange(m, dtype=np.int64)
        width = _window_width(m, round(stops_seen / slots_seen, 3))
        window = _SLOTS[width]

        # Scan each row's next `width` buffered contacts (clamped to its
        # buffer end) against the current informed set.  Until the first
        # informative contact nothing can change: loss, crashes and the
        # jammer only ever suppress informative contacts.  The scan also
        # stops at the first tick that reaches the row's pending boundary
        # or passes the time budget, so the body below sees every boundary
        # crossing and over-time tick exactly where the serial engine does.
        # Slot j of row i sits at [j, i]: every reduction runs down axis 0,
        # vectorised across the rows.
        cursor = positions.take(rows)
        head = pos_base + cursor
        last = head + (buffer_lengths.take(rows) - cursor - 1)
        scan = np.minimum(head + window, last)
        caller_w = callers_flat.take(scan, mode="clip")
        uniform_w = nbr_flat.take(scan, mode="clip")
        caller_pos_w = row_base + caller_w
        if trial_graphs is not None:
            if trial_graphs.width != tg_width:  # a resample grew the pad
                tg_width = trial_graphs.width
                w_base = abs_rows * tg_width
            callee_w = trial_graphs.callees_at(caller_pos_w, w_base, uniform_w)
        else:
            offsets = (uniform_w * degrees_nw.take(caller_w, mode="clip")).astype(
                np.int64
            )
            np.minimum(offsets, max_offset_nw.take(caller_w, mode="clip"), out=offsets)
            offsets += start_nw.take(caller_w, mode="clip")
            callee_w = indices_nw.take(offsets, mode="clip")
        callee_pos_w = row_base + callee_w
        caller_informed_w = informed_flat.take(caller_pos_w, mode="clip")
        informative_w = exchange.informative(
            caller_informed_w, informed_flat.take(callee_pos_w, mode="clip")
        )
        stop = informative_w
        # Tick times as the serial engine forms them, one `now += gap` at a
        # time: add.accumulate sums each row strictly in slot order.
        clock = np.empty((width + 1, m))
        clock[0] = now.take(rows)
        gaps_flat.take(scan, out=clock[1:], mode="clip")
        np.cumsum(clock, axis=0, out=clock)
        tick_w = clock[1:]
        over_w = crossing_w = None
        if finite_time_budget and float(clock[-1].max()) > time_budget:
            over_w = tick_w > time_budget
            stop = stop | over_w
        if has_boundaries and float(clock[-1].max()) >= boundary_floor:
            if next_epoch is None:
                bound = next_resample.take(abs_rows)
            elif next_resample is None:
                bound = next_epoch.take(abs_rows)
            else:
                bound = np.minimum(
                    next_epoch.take(abs_rows), next_resample.take(abs_rows)
                )
            crossing_w = tick_w >= bound
            stop = stop | crossing_w
        # The selected tick: the first stop, else the window's last contact
        # (uninformative, so executing it below changes nothing).
        skip = np.where(stop, window, width - 1).min(axis=0)
        np.minimum(skip, last - head, out=skip)
        picked = skip * m + column
        stops_seen = 0.75 * stops_seen + int(np.count_nonzero(stop.take(picked)))
        slots_seen = 0.75 * slots_seen + float(skip.sum()) + m
        tick_time = clock.take(picked + m)
        caller_pos = caller_pos_w.take(picked)
        uniform = uniform_w.take(picked)
        callee_pos = callee_pos_w.take(picked)
        caller_informed = caller_informed_w.take(picked)
        informative = informative_w.take(picked)
        loss_u = loss_flat.take(head + skip, mode="clip") if loss_flat is not None else None
        positions[rows] = cursor + skip + 1
        now[rows] = tick_time

        gone = None  # local rows retiring this iteration
        over = over_w.take(picked) if over_w is not None else None
        if over is not None and over.any():
            # Popped and counted, but it crosses no boundary and informs
            # no one.
            gone = rows[over]
            over_ids = abs_rows[over]
            live[over_ids] = False
            overtime[over_ids] = True
            steps_out[over_ids] = chunk_base.take(gone) + positions.take(gone)
        absorbed = None
        if crossing_w is not None:
            # Boundaries at integer times (churn/burst epochs) and at
            # dynamic-graph periods: every boundary crossed in
            # (previous tick, now] fires before the exchange at `now`, in
            # chronological order with the epoch first on ties — drawing
            # the same interleaved randomness the serial engine does.
            crossing = crossing_w.take(picked)
            if over is not None:
                crossing &= ~over
            if crossing.any():
                for l, t in zip(rows[crossing], tick_time[crossing]):
                    parts.cross_boundaries(
                        int(ids[l]), t, local_gens[l], n, up, bad,
                        next_epoch, next_resample, trial_graphs,
                        state.informed,
                    )
                # The floor tracks the earliest boundary still pending over
                # the (conservatively: all) trials.
                boundary_floor = np.inf
                if next_epoch is not None:
                    boundary_floor = float(next_epoch.min())
                if next_resample is not None:
                    boundary_floor = min(boundary_floor, float(next_resample.min()))
                if parts.absorbing:
                    absorbed = exchange.absorbed(np.flatnonzero(crossing), abs_rows)

        if trial_graphs is not None:
            # A resample at this tick replaced the trial's graph: draw the
            # callee from the graph the tick actually sees.
            if trial_graphs.width != tg_width:  # a resample grew the pad
                tg_width = trial_graphs.width
                w_base = abs_rows * tg_width
            callee_pos = row_base + trial_graphs.callees_at(caller_pos, w_base, uniform)
            informative = exchange.informative(
                caller_informed, informed_flat.take(callee_pos, mode="clip")
            )
        if over is not None:
            informative = informative & ~over
        stopped = exchange(
            abs_rows, caller_pos, callee_pos, caller_informed, informative,
            loss_u, tick_time, absorbed,
        )
        if stopped is not None:
            stopped = rows.take(stopped)
            steps_out[ids.take(stopped)] = chunk_base.take(stopped) + positions.take(stopped)
            gone = stopped if gone is None else np.concatenate((gone, stopped))
        if gone is not None:
            alive[gone] = False
            retired += gone.size
            if _compact_due():
                _compact()
            rows = np.flatnonzero(alive)
            pos_base = None
        # `rows` stays valid across iterations: every path that retires a
        # trial (budget boundary, overtime, completion, absorption)
        # refreshed it above.


# ---------------------------------------------------------------------- #
# Pooled clock-view chunk consumer
# ---------------------------------------------------------------------- #
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
    epoch_rngs: Optional[list],
) -> None:
    """Consume one pre-drawn ``(rows, width)`` block of pooled clock ticks.

    All randomness of the block (``tick_times`` / ``callers`` /
    ``callees`` / ``loss_block``) is already resolved by the engine, so
    each trial skips ahead through its own row, as in
    :func:`async_tick_loop`: every iteration scans the next few columns
    (:func:`_window_width` picks how many) of each live row and stops at
    the first contact that can change a state — the endpoint pattern the
    mode can use, both endpoints up, not lost (the adaptive jammer's
    uniform is judged later, on would-transmit contacts only) — or at the
    first tick past ``max_time`` or at/after the row's ``next_epoch``.
    Only that tick runs through the epoch crossing and
    :class:`~repro.core.kernels.TickExchange`; up/down states and burst
    channels change only at crossings, so the skipped columns change
    nothing and the results equal a column-by-column walk's.  Crossings of
    churn updates or a burst channel draw from the trial's own stream
    ``epoch_rngs[b]`` (``None`` when no crossing draws): trials reach
    their crossings at different columns, so a shared stream would make
    one trial's draws depend on the others'.

    Mutates the absolute per-trial state in place.  ``steps`` changes only
    at retirement and at the block's end: while alive, a trial executes
    every column.  A trial retires after the column that brings its
    informed count to its absorbing target (``parts.target``; ``n`` unless
    the scenario can absorb); the first over-budget tick is popped but not
    executed (no step counted), as in the serial engine.
    """
    mode = "push-pull" if mode_pp else ("push" if push_allowed else "pull")
    exchange = TickExchange(
        informed, times, up, num_informed, completed, completion_time, live, mode,
        parts, bad,
    )
    informed_flat = exchange.informed_flat
    up_flat = exchange.up_flat
    tick_flat = tick_times.reshape(-1)
    # The block's endpoints as flat positions of the (B, n) state.
    row_base = (rows * n)[:, None]
    caller_flat = (callers + row_base).reshape(-1)
    callee_flat = (callees + row_base).reshape(-1)
    loss_flat = loss_block.reshape(-1) if loss_block is not None else None
    screen_loss = loss_flat is not None and parts.adaptive_loss is None
    last = width - 1
    # The working set, compacted whenever a row leaves it (retired, or
    # through the block): trial ids, the flat slots of each row's first
    # and last columns, and each row's next column.
    ids = rows
    slot_base = np.arange(rows.size, dtype=np.int64) * width
    slot_last = slot_base + last
    cursor = np.zeros(rows.size, dtype=np.int64)
    column = np.arange(rows.size, dtype=np.int64)
    lead = 0  # an upper bound on cursor.max(): the block-end test is rare
    # A lower bound on the pending epochs of the working set.
    epoch_floor = float(next_epoch.take(rows).min()) if next_epoch is not None else np.inf
    # Decaying counts of scan stops and scanned slots (see async_tick_loop).
    stops_seen, slots_seen = 1.0, 16.0
    while ids.size:
        m = ids.size
        if column.size != m:
            column = np.arange(m, dtype=np.int64)
        scan_width = _window_width(m, round(stops_seen / slots_seen, 3))
        # Slot j of row i sits at [j, i] (a width-1 scan is each row's next
        # slot), clamped to the row's last column.
        head = slot_base + cursor
        if scan_width == 1:
            scan = head
        else:
            scan = np.minimum(head + _SLOTS[scan_width], slot_last)
        caller_pos_w = caller_flat.take(scan)
        callee_pos_w = callee_flat.take(scan)
        caller_informed_w = informed_flat.take(caller_pos_w)
        informative_w = exchange.informative(
            caller_informed_w, informed_flat.take(callee_pos_w)
        )
        stop = informative_w
        if up_flat is not None:
            stop = stop & up_flat.take(caller_pos_w)
            stop &= up_flat.take(callee_pos_w)
        if screen_loss:
            stop = stop & (loss_flat.take(scan) >= parts.loss_threshold(bad, ids))
        tick_w = over_w = crossing_w = None
        if finite_time_budget or next_epoch is not None:
            tick_w = tick_flat.take(scan)
            latest = float(tick_w.max())
            if latest > time_budget:
                over_w = tick_w > time_budget
                stop = stop | over_w
            if latest >= epoch_floor:
                crossing_w = tick_w >= next_epoch.take(ids)
                stop = stop | crossing_w
        advanced = m
        if scan_width == 1:
            picked = None  # the scan arrays are already one slot per row
            hit = stop
        else:
            # The selected slot: the first stop, else the window's last
            # (which then only moves the cursor, past the block end if the
            # scan was clamped there: the row is then through).
            skip = np.where(stop, _SLOTS[scan_width], scan_width - 1).min(axis=0)
            picked = skip * m + column
            hit = stop.take(picked)
            cursor += skip
            head += skip
            advanced += int(skip.sum())
        cursor += 1
        lead += scan_width
        gone = None  # positions of the rows that retire this iteration
        if over_w is not None:
            over = _sub(over_w, picked)
            if over.any():
                gone = over.nonzero()[0]
                live[ids.take(gone)] = False
                steps[ids.take(gone)] = executed + cursor.take(gone) - 1
                hit = hit & ~over
        # `sel`: the rows whose selected tick is a stop (None: all of them);
        # `at`: where those ticks sit in the scan arrays.
        sel: Optional[np.ndarray] = hit.nonzero()[0]
        stops = sel.size
        stops_seen = 0.75 * stops_seen + stops
        slots_seen = 0.75 * slots_seen + advanced
        if stops:
            if stops == m:
                sel = None
            at = sel if picked is None else _sub(picked, sel)
            sel_ids = _sub(ids, sel)
            tick_time = _sub(tick_w, at) if tick_w is not None else tick_flat.take(_sub(head, sel))
            absorbed = None
            if crossing_w is not None:
                crossing = _sub(crossing_w, at).nonzero()[0]
                for j in crossing:
                    b = int(sel_ids[j])
                    parts.cross_boundaries(
                        b, tick_time[j], epoch_rngs[b] if epoch_rngs is not None else None,
                        n, up, bad, next_epoch, None, None, informed,
                    )
                if crossing.size:
                    epoch_floor = float(next_epoch.take(ids).min())
                    if parts.absorbing:
                        absorbed = exchange.absorbed(crossing, sel_ids)
            stopped = exchange(
                sel_ids, _sub(caller_pos_w, at), _sub(callee_pos_w, at),
                _sub(caller_informed_w, at), _sub(informative_w, at),
                loss_flat.take(_sub(head, sel)) if loss_flat is not None else None,
                tick_time, absorbed,
            )
            if stopped is not None:
                if sel is not None:
                    stopped = sel.take(stopped)
                steps[ids.take(stopped)] = executed + cursor.take(stopped)
                gone = stopped if gone is None else np.concatenate((gone, stopped))
        if lead > last:
            lead = int(cursor.max())
        if lead > last:  # rows through the block: every column executed
            through = (cursor > last).nonzero()[0]
            if gone is not None:
                through = np.setdiff1d(through, gone)
            steps[ids.take(through)] = executed + width
            now[ids.take(through)] = tick_flat.take(slot_last.take(through))
            gone = through if gone is None else np.concatenate((gone, through))
        if gone is not None:
            keep = np.ones(m, dtype=bool)
            keep[gone] = False
            ids, slot_base, slot_last, cursor = (
                ids[keep], slot_base[keep], slot_last[keep], cursor[keep]
            )


def _sub(values: np.ndarray, at: Optional[np.ndarray]) -> np.ndarray:
    """``values`` at the flat positions ``at`` (``None``: all of them)."""
    return values if at is None else values.take(at)
