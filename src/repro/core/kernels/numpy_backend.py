"""Reference NumPy kernels, extracted verbatim from the batch engine.

These are the vectorised hot loops that :mod:`repro.core.batch_engine`
shipped with before the backend split — every array trick (narrow-dtype
gathers, ``casting="unsafe"`` contact arithmetic, preallocated round
buffers, the scalar refill countdown) is preserved, so ``backend="numpy"``
is bit-for-bit the engine's historical behaviour.  The one upgrade is the
asynchronous tick loop, which now *compacts* retired trials out of its
working set (as the synchronous kernel always did) instead of masking
them; the compaction is order-preserving and threshold-triggered, so the
event sequence — and therefore every RNG draw, pooled modes included — is
unchanged while straggler-dominated workloads stop paying full-batch
gathers per tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

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

    The engine's flattened tick loop, with retired trials *compacted* out
    of the working set instead of masked: row ``i`` of the local buffer
    arrays belongs to trial ``ids[i]``, and whenever at least half of the
    local rows (and at least ``_COMPACT_MIN_RETIRED`` of them) have
    retired, the survivors are copied down.  Compaction preserves row
    order, so every refill and boundary crossing fires in the same
    sequence as before — pooled-mode draws included.  Per-trial outputs
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
    pooled_rng = state.pooled_rng
    trial_graphs = state.trial_graphs
    mode_pp = state.mode == "push-pull"
    push_allowed = state.mode in ("push", "push-pull")
    step_budget = state.step_budget
    time_budget = state.time_budget
    finite_time_budget = state.finite_time_budget
    has_boundaries = state.has_boundaries
    boundary_floor = state.boundary_floor
    next_epoch = state.next_epoch
    next_resample = state.next_resample
    up = state.up
    bad = state.bad
    # Only absorbing scenarios have targets below n; everything else keeps
    # the plain completion test.
    target = parts.target if parts.absorbing else None
    degrees_nw = state.degrees
    max_offset_nw = state.max_offset
    start_nw = state.start
    indices_nw = state.indices

    # Absolute per-trial state (never compacted; scattered into by id).
    live = state.live
    if not live.any():
        return
    num_informed = state.num_informed
    completed = state.completed
    completion_time = state.completion_time
    overtime = state.overtime
    steps_out = state.steps
    informed_flat = state.informed.reshape(-1)
    times_flat = state.times.reshape(-1) if state.times is not None else None

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
    local_gens = list(state.generators) if state.generators is not None else None

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
        if local_gens is not None:
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
    # Every live trial consumes exactly one buffered draw per iteration, so
    # the earliest possible refill is a scalar countdown — the loop skips
    # the per-iteration buffer-exhaustion scan entirely until it reaches 0.
    ticks_until_refill = 0
    # Index bases derived from `rows` (flat positions into the local
    # buffers and the absolute (B, n) state), recomputed only when the
    # live set changes.
    pos_base = row_base = w_base = abs_rows = None
    tg_width = trial_graphs.width if trial_graphs is not None else None
    while rows.size:
        if ticks_until_refill <= 0:
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
                    rng = pooled_rng if pooled_rng is not None else local_gens[l]
                    state.draw_chunk(
                        rng, int(ids[l]), chunk, l,
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
            ticks_until_refill = int(
                (buffer_lengths.take(rows) - positions.take(rows)).min()
            )
        ticks_until_refill -= 1

        if pos_base is None:
            pos_base = rows * chunk_size
            abs_rows = ids.take(rows)
            row_base = abs_rows * n
            if trial_graphs is not None:
                tg_width = trial_graphs.width
                w_base = abs_rows * tg_width

        cursor = positions.take(rows)
        pos = pos_base + cursor
        gap = gaps_flat.take(pos, mode="clip")
        caller = callers_flat.take(pos, mode="clip")
        uniform = nbr_flat.take(pos, mode="clip")
        loss_u = loss_flat.take(pos, mode="clip") if loss_flat is not None else None
        positions[rows] = cursor + 1
        tick_time = now.take(rows) + gap
        now[rows] = tick_time

        if finite_time_budget:
            over_time = tick_time > time_budget
            if over_time.any():
                over_rows = rows[over_time]
                over_ids = abs_rows[over_time]
                live[over_ids] = False
                overtime[over_ids] = True
                steps_out[over_ids] = chunk_base.take(over_rows) + positions.take(over_rows)
                alive[over_rows] = False
                retired += over_rows.size
                keep = ~over_time
                rows = rows[keep]
                pos_base = pos_base[keep]
                row_base = row_base[keep]
                abs_rows = abs_rows[keep]
                if w_base is not None:
                    w_base = w_base[keep]
                caller = caller[keep]
                uniform = uniform[keep]
                tick_time = tick_time[keep]
                if loss_u is not None:
                    loss_u = loss_u[keep]
                if rows.size == 0:
                    if _compact_due():
                        _compact()
                    rows = np.flatnonzero(alive)
                    pos_base = None
                    continue
        stopped = None
        if has_boundaries and float(tick_time.max()) >= boundary_floor:
            # Boundaries at integer times (churn/burst epochs) and at
            # dynamic-graph periods: every boundary crossed in
            # (previous tick, now] fires before the exchange at `now`, in
            # chronological order with the epoch first on ties — drawing
            # the same interleaved randomness the serial engine does.
            if next_epoch is None:
                bound = next_resample.take(abs_rows)
            elif next_resample is None:
                bound = next_epoch.take(abs_rows)
            else:
                bound = np.minimum(
                    next_epoch.take(abs_rows), next_resample.take(abs_rows)
                )
            crossing = tick_time >= bound
            if crossing.any():
                for l, t in zip(rows[crossing], tick_time[crossing]):
                    rng = pooled_rng if pooled_rng is not None else local_gens[l]
                    parts.cross_boundaries(
                        int(ids[l]), t, rng, n, up, bad,
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
                if target is not None:
                    # A crash can leave a trial absorbed: it still executes
                    # this tick, then retires with the informing ones below.
                    crossed = rows[crossing]
                    crossed_ids = ids.take(crossed)
                    stopped = crossed[
                        num_informed.take(crossed_ids) >= target.take(crossed_ids)
                    ]
        # The loss threshold depends on the burst channel state *after* the
        # boundaries at this tick fired, so it resolves only now.  Under an
        # adaptive jammer the uniform is judged later, against the
        # would-transmit mask, not here.
        lost = (
            loss_u < parts.loss_threshold(bad, abs_rows)
            if loss_u is not None and parts.adaptive_loss is None
            else None
        )

        caller_pos = row_base + caller
        if trial_graphs is not None:
            if trial_graphs.width != tg_width:  # a resample grew the pad
                tg_width = trial_graphs.width
                w_base = abs_rows * tg_width
            callee = trial_graphs.callees_at(caller_pos, w_base, uniform)
        else:
            offsets = (uniform * degrees_nw.take(caller, mode="clip")).astype(np.int64)
            np.minimum(offsets, max_offset_nw.take(caller, mode="clip"), out=offsets)
            offsets += start_nw.take(caller, mode="clip")
            callee = indices_nw.take(offsets, mode="clip")

        caller_informed = informed_flat.take(caller_pos, mode="clip")
        callee_informed = informed_flat.take(row_base + callee, mode="clip")
        # One contact per trial per tick, so the exchange vectorises with no
        # intra-iteration conflicts: push informs the callee, pull informs
        # the caller, and in push-pull exactly the uninformed endpoint of an
        # informative contact (caller_informed XOR callee_informed) learns.
        if mode_pp:
            active = caller_informed != callee_informed
            targets = np.where(caller_informed, callee, caller)
        elif push_allowed:
            active = caller_informed & ~callee_informed
            targets = callee
        else:
            active = ~caller_informed & callee_informed
            targets = caller
        if lost is not None:
            active &= ~lost
        if up is not None:
            # Crashed endpoints suppress the exchange in either direction.
            active &= up[abs_rows, caller] & up[abs_rows, callee]
        if parts.adaptive_loss is not None:
            # `active` is now exactly the would-transmit mask: jam the
            # contacts whose pre-drawn uniform fires, while budget remains.
            jam = active & (loss_u < parts.adaptive_loss.p) & (
                parts.jam_budget[abs_rows] > 0
            )
            if jam.any():
                parts.jam_budget[abs_rows[jam]] -= 1
                active &= ~jam
        if active.any():
            active_ids = abs_rows[active]
            if metrics is not None:
                metrics.count("engine.messages_delivered", int(active_ids.size))
            active_flat = row_base[active] + targets[active]
            informed_flat[active_flat] = True
            if times_flat is not None:
                times_flat[active_flat] = tick_time[active]
            num_informed[active_ids] += 1
            if target is None:
                done_mask = num_informed[active_ids] == n
            else:
                done_mask = num_informed[active_ids] >= target[active_ids]
            if done_mask.any():
                done_local = rows[active][done_mask]
                stopped = (
                    done_local if stopped is None else np.union1d(stopped, done_local)
                )
        if stopped is not None and stopped.size:
            done_ids = ids.take(stopped)
            full = num_informed[done_ids] == n
            completed[done_ids[full]] = True
            completion_time[done_ids[full]] = now.take(stopped[full])
            steps_out[done_ids] = chunk_base.take(stopped) + positions.take(stopped)
            live[done_ids] = False
            alive[stopped] = False
            retired += stopped.size
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
    pooled_rng: Optional[np.random.Generator],
) -> None:
    """Consume one pre-drawn ``(rows, width)`` block of pooled clock ticks.

    The column loop of the chunked pooled fast path: all randomness
    (``tick_times`` / ``callers`` / ``callees`` / ``loss_block``) is
    already resolved by the engine; only churn/burst epoch crossings draw
    from ``pooled_rng`` mid-block.  Mutates the absolute per-trial state
    in place.  The column loop touches ``steps`` only at retirement: while
    alive, every trial executes every column, so the count is implied by
    the column index (``executed + column``).  A trial retires after the
    column that brings its informed count to its absorbing target
    (``parts.target``; ``n`` unless the scenario can absorb).
    """
    target = parts.target
    alive = np.ones(rows.size, dtype=bool)
    local = np.arange(rows.size, dtype=np.int64)
    active_rows = rows
    for column in range(width):
        tick_time = tick_times[local, column]
        if finite_time_budget:
            # Like the serial engine: the first over-budget event is
            # popped but not executed (no step counted).
            over = tick_time > time_budget
            if over.any():
                over_local = local[over]
                live[rows[over_local]] = False
                alive[over_local] = False
                steps[rows[over_local]] = executed + column
                local = local[~over]
                if local.size == 0:
                    break
                active_rows = rows[local]
                tick_time = tick_time[~over]
        stopped = None
        if next_epoch is not None:
            # Churn/burst epochs at integer times, as in the per-trial
            # kernel; the updates draw from the pooled generator.
            crossing = tick_time >= next_epoch[active_rows]
            if crossing.any():
                for b, t in zip(active_rows[crossing], tick_time[crossing]):
                    parts.cross_boundaries(
                        b, t, pooled_rng, n, up, bad, next_epoch, None, None,
                        informed,
                    )
                if parts.absorbing:
                    # A crash can leave a trial absorbed: it still executes
                    # this column, then retires.
                    crossed = local[crossing]
                    crossed_rows = rows[crossed]
                    stopped = crossed[
                        num_informed[crossed_rows] >= target[crossed_rows]
                    ]
        caller = callers[local, column]
        callee = callees[local, column]
        caller_informed = informed[active_rows, caller]
        callee_informed = informed[active_rows, callee]
        if mode_pp:
            active = caller_informed != callee_informed
            targets = np.where(caller_informed, callee, caller)
        elif push_allowed:
            active = caller_informed & ~callee_informed
            targets = callee
        else:
            active = ~caller_informed & callee_informed
            targets = caller
        if loss_block is not None and parts.adaptive_loss is None:
            active &= loss_block[local, column] >= parts.loss_threshold(
                bad, active_rows
            )
        if up is not None:
            active &= up[active_rows, caller] & up[active_rows, callee]
        if parts.adaptive_loss is not None:
            jam = active & (loss_block[local, column] < parts.adaptive_loss.p) & (
                parts.jam_budget[active_rows] > 0
            )
            if jam.any():
                parts.jam_budget[active_rows[jam]] -= 1
                active &= ~jam
        if active.any():
            hit_local = local[active]
            hit_rows = rows[hit_local]
            hit_targets = targets[active]
            hit_times = tick_time[active]
            informed[hit_rows, hit_targets] = True
            if times is not None:
                times[hit_rows, hit_targets] = hit_times
            num_informed[hit_rows] += 1
            done = num_informed[hit_rows] >= target[hit_rows]
            if done.any():
                full = num_informed[hit_rows] == n
                completed[hit_rows[full]] = True
                completion_time[hit_rows[full]] = hit_times[full]
                done_local = hit_local[done]
                stopped = (
                    done_local if stopped is None else np.union1d(stopped, done_local)
                )
        if stopped is not None and stopped.size:
            done_rows = rows[stopped]
            steps[done_rows] = executed + column + 1
            live[done_rows] = False
            alive[stopped] = False
            local = np.flatnonzero(alive)
            if local.size == 0:
                break
            active_rows = rows[local]
    if local.size:
        steps[active_rows] = executed + width
        now[active_rows] = tick_times[local, width - 1]
