"""Backend-neutral batch kernels: the hot loops of ``repro.core.batch_engine``.

The batched Monte Carlo engine separates *orchestration* (validation,
scenario unpacking, RNG stream management, result assembly — all of which
stays in :mod:`repro.core.batch_engine`) from the *hot loops* that consume
the pre-drawn randomness: the synchronous round step, the flattened
asynchronous tick loop of the ``"global"`` view, and the pooled clock-view
chunk consumer.  Those loops live here as pure-array kernel functions with
two interchangeable implementations:

``numpy``
    :mod:`repro.core.kernels.numpy_backend` — the reference vectorised
    kernels.  Always available.  Both its async loops skip ahead: each
    iteration scans a short window of every live trial's pending contacts
    and jumps to the first one that can inform anyone, so they pay array
    overhead per informative tick rather than per tick.
``jit``
    :mod:`repro.core.kernels.jit_backend` — Numba ``@njit(cache=True)``
    loops over the CSR ``indptr``/``indices`` arrays, per trial and per
    vertex, with no full-width ``(B, n)`` temporaries.  Its async loop
    deliberately stays per-tick: compiled, a tick is a handful of scalar
    operations with no per-iteration array overhead for a scan to
    amortise.  Requires the
    ``jit`` install extra (``pip install -e .[jit]``); without numba the
    resolver falls back to ``numpy`` with a one-time warning.
``auto``
    ``jit`` when numba is importable, ``numpy`` otherwise (never warns).

**Equivalence contract.**  All trial-level randomness is drawn *outside*
the kernels (by the engine or the shared :meth:`AsyncState.draw_chunk` /
``_ScenarioParts.cross_boundaries`` helpers), in the serial engines'
documented order; the kernels are deterministic functions of those draws.
Consequently the per-trial RNG modes are **bit-identical** across backends
— the full ``KERNEL_CASES`` registry replays under both — and so is every
pooled asynchronous run, whatever its view: the engine pre-draws each
pooled block before the chunk consumer walks it, and a pooled dynamic-graph
run is a per-trial run on streams spawned from the pooled generator.

The backend is selected per call through the ``backend=`` engine option
(threaded through ``run_trials`` / ``run_trials_parallel`` / the CLI
``--backend`` flag), defaulting to the ``REPRO_KERNEL_BACKEND``
environment variable and then to ``"auto"``.
"""

from __future__ import annotations

import warnings
from types import ModuleType
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import config
from repro.errors import ProtocolError
from repro.randomness.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.batch_engine import _ScenarioParts
    from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "KERNEL_BACKENDS",
    "AsyncState",
    "TickExchange",
    "available_backends",
    "default_backend_name",
    "resolve_backend",
    "warmup_kernels",
]

#: Names accepted by ``backend=`` (and the ``REPRO_KERNEL_BACKEND`` env var).
KERNEL_BACKENDS = ("numpy", "jit", "auto")

_ENV_BACKEND = "REPRO_KERNEL_BACKEND"

_jit_fallback_warned = False


def _reset_fallback_warning() -> None:
    """Test hook: make the next jit→numpy fallback warn again."""
    global _jit_fallback_warned
    _jit_fallback_warned = False


def default_backend_name() -> str:
    """The backend name used when a kernel call passes ``backend=None``."""
    return config.read_env(_ENV_BACKEND) or "auto"


def available_backends() -> list[str]:
    """The backend names that resolve to themselves in this process."""
    from repro.core.kernels import jit_backend

    names = ["numpy"]
    if jit_backend.is_available():
        names.append("jit")
    return names


def resolve_backend(backend: Optional[str] = None) -> ModuleType:
    """Resolve a backend name to its kernel module.

    ``None`` reads ``REPRO_KERNEL_BACKEND`` and then defaults to
    ``"auto"``.  ``"auto"`` quietly prefers the compiled jit backend when
    numba is importable.  ``"jit"`` without numba degrades to the numpy
    backend with a single :class:`RuntimeWarning` per process (the
    graceful-fallback contract pinned by the suite).  Unknown names raise
    :class:`~repro.errors.ProtocolError`.
    """
    global _jit_fallback_warned
    name = default_backend_name() if backend is None else backend
    if name not in KERNEL_BACKENDS:
        raise ProtocolError(
            f"unknown kernel backend {name!r}; expected one of {KERNEL_BACKENDS}"
        )
    from repro.core.kernels import numpy_backend

    if name == "numpy":
        return numpy_backend
    from repro.core.kernels import jit_backend

    if name == "auto":
        return jit_backend if jit_backend.is_compiled() else numpy_backend
    if jit_backend.is_available():
        return jit_backend
    if not _jit_fallback_warned:
        _jit_fallback_warned = True
        warnings.warn(
            "backend='jit' requested but numba is not installed; falling back "
            "to the numpy kernels (install the extra: pip install -e '.[jit]'). "
            "This warning is shown once per process.",
            RuntimeWarning,
            stacklevel=2,
        )
    return numpy_backend


def warmup_kernels(backend: Optional[str] = None) -> str:
    """Run one tiny batch through every kernel family on ``backend``.

    Numba compiles lazily on the first call per signature, so a worker's
    first real chunk (or a benchmark's first timed repetition) would
    otherwise absorb seconds of compilation.  Pool workers and
    ``benchmarks/conftest.py`` call this once up front; the runs use
    throwaway graphs and seeds and touch no caller RNG state.  Returns the
    resolved backend's name (``"numpy"`` after a fallback).
    """
    from repro.core import batch_engine
    from repro.graphs import complete_graph

    resolved = resolve_backend(backend)
    graph = complete_graph(4)
    common = dict(
        trials=2,
        record_times=False,
        on_budget_exhausted="partial",
        backend=backend,
    )
    batch_engine.run_synchronous_batch(graph, 0, seed=0, **common)
    batch_engine.run_asynchronous_batch(graph, 0, seed=0, **common)
    batch_engine.run_clock_view_batch(
        graph, 0, pooled_rng=as_generator(0), **common
    )
    return resolved.BACKEND_NAME


class AsyncState:
    """Everything the asynchronous ``"global"`` tick loop reads and writes.

    Built by :func:`~repro.core.batch_engine.run_asynchronous_batch` and
    handed to the selected backend's ``async_tick_loop``, so both backends
    consume one identically-prepared bundle (same buffer layout, same
    pre-drawn randomness protocol) and cannot drift apart.  All arrays are
    indexed by absolute trial row; a backend that compacts its working set
    (the numpy loop does) keeps its own local-row mapping and writes
    results back through these arrays.
    """

    __slots__ = (
        # problem shape / protocol
        "n", "batch", "mode", "chunk",
        # budgets
        "step_budget", "time_budget", "finite_time_budget",
        # per-trial randomness sources
        "generators",
        # clock rates (Delay scenario)
        "scale", "scales", "rates_cum", "rates_total",
        # static CSR (narrow) and the per-trial dynamic stacked CSR
        "degrees", "max_offset", "start", "indices", "trial_graphs",
        # scenario state
        "parts", "up", "bad", "next_epoch", "next_resample",
        "boundary_floor", "has_boundaries",
        # per-trial randomness buffers (serial chunk protocol)
        "gaps", "callers", "nbr_uniforms", "loss_uniforms",
        "positions", "buffer_lengths", "chunk_base",
        # trial state
        "informed", "times", "num_informed", "now",
        "live", "completed", "completion_time", "overtime", "steps",
    )

    def __init__(self, **fields: object) -> None:
        for name in self.__slots__:
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError(f"unknown AsyncState fields: {sorted(fields)}")

    def draw_chunk(
        self,
        rng: np.random.Generator,
        trial: int,
        chunk: int,
        row: int,
        gaps: Optional[np.ndarray] = None,
        callers: Optional[np.ndarray] = None,
        nbr_uniforms: Optional[np.ndarray] = None,
        loss_uniforms: Optional[np.ndarray] = None,
    ) -> None:
        """Refill one trial's randomness buffers with ``chunk`` draws.

        The single definition of the serial engine's per-chunk draw order
        (exponential gaps, callers, neighbor uniforms, loss uniforms) shared
        by both backends, so the equivalence-pinned stream cannot drift.
        ``trial`` addresses the per-trial rate tables (absolute row);
        ``row`` addresses the buffers, which a compacting backend passes as
        local arrays (defaulting to the state's own).
        """
        n = self.n
        if gaps is None:
            gaps = self.gaps
        if callers is None:
            callers = self.callers
        if nbr_uniforms is None:
            nbr_uniforms = self.nbr_uniforms
        if loss_uniforms is None:
            loss_uniforms = self.loss_uniforms
        gaps[row, :chunk] = rng.exponential(
            self.scale if self.scales is None else self.scales[trial], chunk
        )
        if self.rates_cum is not None:
            # Weighted caller selection: resolve the whole chunk of uniforms
            # against the trial's cumulative rates now (the draw order is
            # what serial equivalence pins, not when they are transformed).
            caller_uniforms = rng.random(chunk)
            callers[row, :chunk] = np.minimum(
                np.searchsorted(
                    self.rates_cum[trial],
                    caller_uniforms * self.rates_total[trial],
                    side="right",
                ),
                n - 1,
            )
        else:
            callers[row, :chunk] = rng.integers(0, n, chunk)
        nbr_uniforms[row, :chunk] = rng.random(chunk)
        if loss_uniforms is not None:
            loss_uniforms[row, :chunk] = rng.random(chunk)


class TickExchange:
    """The rumor exchange every batched asynchronous tick runs through.

    The numpy tick loop and clock-block consumer (after scanning ahead to
    each trial's next informative tick) and the per-trial clock-view table
    loop (one tick per trial per iteration) call it with one selected
    contact per trial, so there are no intra-call conflicts and the
    exchange vectorises: push informs the callee, pull the caller, and
    push–pull exactly the uninformed endpoint of an informative contact.
    Loss (the contact's uniform against the threshold of the burst state
    *after* this tick's boundaries), a crashed endpoint, and the adaptive
    jammer suppress it; the jammer judges the uniform against the
    would-transmit mask, while budget remains.  A trial then retires if its
    informed count reached its absorbing target (``parts.target``: ``n``
    unless the scenario can absorb) — by informing, or because a boundary
    this tick crossed left it absorbed.  Retirement sets ``completed`` /
    ``completion_time`` / ``live``; the caller records the step count.
    Endpoints are addressed by flat position in the ``(B, n)`` state (1-D
    takes and scatters skip the 2-D fancy-indexing machinery); boundary
    crossings rewrite ``up`` rows in place, so its flat view stays current.
    """

    __slots__ = (
        "n", "informed_flat", "times_flat", "up_flat", "num_informed",
        "completed", "completion_time", "live", "mode_pp", "push_allowed",
        "parts", "bad", "metrics",
    )

    def __init__(
        self,
        informed: np.ndarray,
        times: Optional[np.ndarray],
        up: Optional[np.ndarray],
        num_informed: np.ndarray,
        completed: np.ndarray,
        completion_time: np.ndarray,
        live: np.ndarray,
        mode: str,
        parts: "_ScenarioParts",
        bad: Optional[np.ndarray],
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.n = informed.shape[1]
        self.informed_flat = informed.reshape(-1)
        self.times_flat = times.reshape(-1) if times is not None else None
        self.up_flat = up.reshape(-1) if up is not None else None
        self.num_informed = num_informed
        self.completed = completed
        self.completion_time = completion_time
        self.live = live
        self.mode_pp = mode == "push-pull"
        self.push_allowed = mode in ("push", "push-pull")
        self.parts = parts
        self.bad = bad
        self.metrics = metrics

    def informative(
        self, caller_informed: np.ndarray, callee_informed: np.ndarray
    ) -> np.ndarray:
        """The contacts with the endpoint pattern the mode can use (push–pull:
        one endpoint informed; push: the caller, not the callee; pull: the
        reverse).  No other contact can change any state."""
        if self.mode_pp:
            return caller_informed != callee_informed
        if self.push_allowed:
            return caller_informed > callee_informed
        return caller_informed < callee_informed

    def absorbed(self, crossed: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """The positions among ``crossed`` (into ``ids``) whose trial a
        boundary crossing left absorbed: a crash shrank its target to its
        informed count.  It still executes its tick, then retires."""
        crossed_ids = ids.take(crossed)
        target = self.parts.target
        return crossed[self.num_informed.take(crossed_ids) >= target.take(crossed_ids)]

    def __call__(
        self,
        ids: np.ndarray,
        caller_pos: np.ndarray,
        callee_pos: np.ndarray,
        caller_informed: np.ndarray,
        informative: np.ndarray,
        loss_u: Optional[np.ndarray],
        tick_time: np.ndarray,
        absorbed: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Exchange at trials ``ids`` (endpoints at flat ``caller_pos`` /
        ``callee_pos``; ``informative`` from :meth:`informative`); return
        the positions (into ``ids``) of the trials that retired, or
        ``None``.  ``absorbed``: the positions :meth:`absorbed` found."""
        parts = self.parts
        if self.mode_pp:
            targets = np.where(caller_informed, callee_pos, caller_pos)
        else:
            targets = callee_pos if self.push_allowed else caller_pos
        # Never in place: `informative` may be the caller's own array.
        active = informative
        if loss_u is not None and parts.adaptive_loss is None:
            active = active & (loss_u >= parts.loss_threshold(self.bad, ids))
        if self.up_flat is not None:
            active = active & self.up_flat.take(caller_pos)
            active &= self.up_flat.take(callee_pos)
        if parts.adaptive_loss is not None:
            jam = active & (loss_u < parts.adaptive_loss.p)
            jam &= parts.jam_budget.take(ids) > 0
            if jam.any():
                parts.jam_budget[ids[jam]] -= 1
                active = active & ~jam
        stopped = absorbed
        if active.any():
            hits = active.nonzero()[0]
            hit_ids = ids.take(hits)
            if self.metrics is not None:
                self.metrics.count("engine.messages_delivered", int(hits.size))
            flat = targets.take(hits)
            self.informed_flat[flat] = True
            if self.times_flat is not None:
                self.times_flat[flat] = tick_time.take(hits)
            self.num_informed[hit_ids] += 1
            done = self.num_informed.take(hit_ids) >= parts.target.take(hit_ids)
            if done.any():
                done = hits[done]
                stopped = done if stopped is None else np.union1d(stopped, done)
        if stopped is None or stopped.size == 0:
            return None
        done_ids = ids.take(stopped)
        full = self.num_informed.take(done_ids) == self.n
        self.completed[done_ids[full]] = True
        self.completion_time[done_ids[full]] = tick_time.take(stopped)[full]
        self.live[done_ids] = False
        return stopped
