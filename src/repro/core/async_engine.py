"""Asynchronous rumor spreading engines (the paper's ``pp-a`` and friends).

In the asynchronous model every vertex carries an independent Poisson clock
of rate 1.  Whenever the clock of ``v`` ticks, ``v`` contacts a uniformly
random neighbor ``w`` and the rumor is exchanged exactly as in the
synchronous protocol (push, pull, or both), using the informed set at the
instant of the tick.  The rumor spreading time is measured in continuous
time units.

Section 2 of the paper lists three equivalent descriptions of the model, and
this module implements all three so their equivalence can be validated
empirically (experiment E10):

* ``"global"`` — a single Poisson clock of rate ``n``; on every tick a
  uniformly random vertex takes a step.  This is the fastest view (one
  exponential gap and two uniform draws per step) and the default.
* ``"node_clocks"`` — a literal per-vertex clock realised with a priority
  queue of next-tick times.
* ``"edge_clocks"`` — one clock per *ordered* adjacent pair ``(v, w)`` with
  rate ``1 / deg(v)``; on a tick, ``v`` contacts ``w``.

The equivalence follows from the superposition and thinning properties of
Poisson processes plus the memorylessness of the exponential distribution —
precisely the facts the paper quotes.

Two runners cover the three views: :func:`_run_global_view`, and
:func:`_run_clock_view`, a priority queue over a clock table (one clock per
vertex, or one per ordered pair).  One :class:`_ScenarioState` per trial
carries every runtime scenario effect for both; without a runtime scenario
it is inert (draws nothing, never crosses a boundary, suppresses nothing).

Per-trial randomness order — the contract the batched kernels of
:mod:`repro.core.batch_engine` mirror draw for draw:

1. ``Delay`` rates (``rng.random(n)`` unless given explicitly), once,
   before anything else;
2. clock views only: the initial next-tick block, one
   ``rng.exponential(scales)`` call over the clock table — scale
   ``1 / r_v`` per vertex (``node_clocks``), or ``deg(v) / r_v`` per
   ordered pair in adjacency order (``edge_clocks``);
3. global view only: per refill block of ``min(4096, remaining budget)``
   ticks, exponential gaps (mean ``1 / sum(r)``), callers (``integers``, or
   uniforms mapped through the cumulative rates under ``Delay``), neighbor
   uniforms, and loss uniforms (only with a loss, burst-loss or
   adaptive-loss component);
4. per tick at time ``now``: every boundary crossed in (previous tick, now]
   fires chronologically — per unit-time epoch one ``rng.random(n)`` churn
   update (churn models with per-epoch randomness) then one scalar burst
   draw; per dynamic-graph period the resampler's own draws (the epoch
   fires before a resample on ties; clocks are never redrawn, and
   ``edge_clocks`` rejects dynamic graphs);
5. clock views only, the tick's own draws in order: neighbor uniform
   (``node_clocks``), loss uniform (when lossy), reschedule exponential.

Adaptive adversaries draw nothing of their own: crashes are deterministic
at epoch boundaries, and a jam decision reads the ordinary loss uniform,
which is consumed whether or not it can jam.

As with the synchronous engine, this module simulates one trial with full
:class:`~repro.core.result.SpreadingResult` bookkeeping; times-only Monte
Carlo runs of any view should go through :mod:`repro.core.batch_engine` —
:func:`~repro.core.batch_engine.run_asynchronous_batch` batches the
``"global"`` tick loop and
:func:`~repro.core.batch_engine.run_clock_view_batch` batches the
``"node_clocks"``/``"edge_clocks"`` priority queues as per-row argmin
next-event tables — reproducing this engine's results trial-for-trial for
the same per-trial generators.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat
from typing import Optional

import numpy as np

from repro.core.result import ContactEvent, SpreadingResult
from repro.errors import ProtocolError, ScenarioError, SimulationError
from repro.graphs.base import Graph

# After the graph layer: repro.graphs itself imports the flat adjacency.
from repro.core.flatgraph import flat_adjacency
from repro.randomness.rng import SeedLike, as_generator
from repro.scenarios.base import Scenario, ScenarioLike, absorbing_target, as_scenario

__all__ = [
    "run_asynchronous",
    "default_max_steps",
    "ASYNC_MODES",
    "ASYNC_VIEWS",
]

#: Valid values for the ``mode`` argument.
ASYNC_MODES = ("push", "pull", "push-pull")

#: Valid values for the ``view`` argument.
ASYNC_VIEWS = ("global", "node_clocks", "edge_clocks")

_PROTOCOL_NAMES = {"push": "push-a", "pull": "pull-a", "push-pull": "pp-a"}

#: Ticks per refill block of the global view.
_REFILL = 4096


def default_max_steps(num_vertices: int) -> int:
    """A generous default step budget.

    The slowest standard case is asynchronous push (or pull) on the star,
    which needs :math:`\\Theta(n \\log n)` time units, i.e.
    :math:`\\Theta(n^2 \\log n)` steps.  The default budget is a constant
    multiple of that, so in practice it is only ever hit for disconnected
    graphs or genuinely pathological inputs.
    """
    n = max(2, num_vertices)
    return int(40 * n * n * max(1.0, math.log(n)) + 20_000)


def _validate(graph: Graph, source: int, mode: str, view: str) -> None:
    if mode not in ASYNC_MODES:
        raise ProtocolError(f"unknown asynchronous mode {mode!r}; expected one of {ASYNC_MODES}")
    if view not in ASYNC_VIEWS:
        raise ProtocolError(f"unknown asynchronous view {view!r}; expected one of {ASYNC_VIEWS}")
    if not (0 <= source < graph.num_vertices):
        raise ProtocolError(
            f"source {source} is not a vertex of {graph.name} (n={graph.num_vertices})"
        )
    if graph.num_vertices > 1 and not graph.is_connected():
        raise ProtocolError(
            f"{graph.name} is not connected; the rumor can never reach every vertex"
        )


def run_asynchronous(
    graph: Graph,
    source: int,
    *,
    mode: str = "push-pull",
    view: str = "global",
    seed: SeedLike = None,
    max_steps: Optional[int] = None,
    max_time: Optional[float] = None,
    record_trace: bool = False,
    on_budget_exhausted: str = "error",
    scenario: ScenarioLike = None,
) -> SpreadingResult:
    """Simulate one run of an asynchronous rumor spreading protocol.

    Args:
        graph: the (connected) graph to spread on.
        source: the initially informed vertex ``u``.
        mode: ``"push"``, ``"pull"``, or ``"push-pull"`` (the paper's
            ``push-a``, ``pull-a`` and ``pp-a``).
        view: which of the three equivalent model descriptions to simulate
            (``"global"``, ``"node_clocks"``, ``"edge_clocks"``).
        seed: RNG seed / generator.
        max_steps: step budget; defaults to :func:`default_max_steps`.
        max_time: optional wall-clock (simulated time) budget; whichever of
            the two budgets is hit first stops the run.
        record_trace: record every contact as a :class:`ContactEvent`.
            Under a scenario the trace records every attempted contact,
            including those suppressed by loss or churn.
        on_budget_exhausted: ``"error"`` raises :class:`SimulationError` when
            the run stops before everyone is informed — a budget ran out, or
            the trial was absorbed (see below); ``"partial"`` returns the
            incomplete result.
        scenario: optional adversity scenario (or spec string) from
            :mod:`repro.scenarios`.  Message loss (independent or bursty),
            node churn (random or targeted; state updates once per unit of
            simulated time), dynamic graphs (resampled every ``period``
            time units), and heterogeneous clock rates
            (:class:`~repro.scenarios.Delay`) all apply, under every view.
            The single exception is a dynamic graph under ``"edge_clocks"``
            — resampling the graph would change the per-pair clock set
            itself, so that combination raises
            :class:`~repro.errors.ScenarioError` (use the ``"node_clocks"``
            or ``"global"`` view).  Under the clock-queue views churn never
            stops a clock (a crashed vertex's clocks keep ticking; its
            exchanges are suppressed) and ``Delay`` reweights the per-clock
            rates (vertex ``v`` ticks at rate ``r_v``; pair ``(v, w)`` at
            rate ``r_v / deg(v)``).  Under permanent crashes
            (:attr:`~repro.scenarios.Scenario.can_absorb`) every view stops
            after the first tick that leaves no uninformed up vertex
            reachable from an informed up vertex
            (:func:`~repro.scenarios.absorbing_target`), or before the first
            tick if the source is already cut off; ``termination`` is then
            ``"absorbed"``.

    Returns:
        A :class:`SpreadingResult` with continuous informing times; the
        ``steps`` field counts how many clock ticks were simulated.
    """
    _validate(graph, source, mode, view)
    scenario = as_scenario(scenario)
    if (
        scenario is not None
        and scenario.dynamic is not None
        and view == "edge_clocks"
    ):
        raise ScenarioError(
            "dynamic-graph scenarios are not supported under the 'edge_clocks' "
            "view: resampling the graph would change the per-pair clock set "
            "itself; use the 'node_clocks' or 'global' view"
        )
    if on_budget_exhausted not in ("error", "partial"):
        raise ProtocolError(
            f"on_budget_exhausted must be 'error' or 'partial', got {on_budget_exhausted!r}"
        )
    n = graph.num_vertices
    step_budget = default_max_steps(n) if max_steps is None else int(max_steps)
    if step_budget < 0:
        raise ProtocolError(f"max_steps must be non-negative, got {max_steps}")
    time_budget = math.inf if max_time is None else float(max_time)
    if time_budget < 0:
        raise ProtocolError(f"max_time must be non-negative, got {max_time}")

    protocol_name = _PROTOCOL_NAMES[mode]
    if n == 1:
        return SpreadingResult(
            protocol=protocol_name,
            graph_name=graph.name,
            num_vertices=1,
            source=source,
            informed_time=(0.0,),
            parent=(-1,),
            infection_kind=("source",),
            completed=True,
            steps=0,
            push_infections=0,
            pull_infections=0,
            total_contacts=0,
            trace=None,
        )

    rng = as_generator(seed)
    runtime_scenario = (
        scenario if scenario is not None and scenario.runtime_active() else None
    )
    informed = [False] * n
    informed[source] = True
    informed_time = [math.inf] * n
    informed_time[source] = 0.0
    parent = [-1] * n
    kind: list[Optional[str]] = [None] * n
    kind[source] = "source"
    trace: Optional[list[ContactEvent]] = [] if record_trace else None

    state = _ScenarioState(graph, runtime_scenario, mode, rng, informed)
    if view == "global":
        steps, push_infections, pull_infections = _run_global_view(
            graph, mode, rng, step_budget, time_budget, state,
            informed, informed_time, parent, kind, trace,
        )
    else:
        steps, push_infections, pull_infections = _run_clock_view(
            graph, view, mode, rng, step_budget, time_budget, state,
            informed, informed_time, parent, kind, trace,
        )

    num_informed = 1 + push_infections + pull_infections
    completed = num_informed == n
    absorbed = n > num_informed >= state.target
    if not completed and on_budget_exhausted == "error":
        if absorbed:
            reason = f": absorbed after {steps} steps (no uninformed up vertex is reachable)"
        else:
            reason = f" within {step_budget} steps / time {time_budget}"
            if runtime_scenario is not None:
                reason += f" under {runtime_scenario.spec()}"
        raise SimulationError(
            f"{protocol_name} on {graph.name} informed only {num_informed}/{n} vertices{reason}"
        )
    return SpreadingResult(
        protocol=protocol_name,
        graph_name=graph.name,
        num_vertices=n,
        source=source,
        informed_time=tuple(informed_time),
        parent=tuple(parent),
        infection_kind=tuple(kind),
        completed=completed,
        steps=steps,
        push_infections=push_infections,
        pull_infections=pull_infections,
        total_contacts=steps - state.silent_ticks,
        adversary_budget_spent=state.budget_spent(),
        trace=None if trace is None else tuple(trace),
        termination="absorbed" if absorbed else None,
    )


# ---------------------------------------------------------------------- #
# Shared per-step rumor exchange logic
# ---------------------------------------------------------------------- #
def _exchange(
    mode: str,
    caller: int,
    callee: int,
    informed: list[bool],
    informed_time: list[float],
    parent: list[int],
    kind: list[Optional[str]],
    now: float,
) -> tuple[Optional[int], Optional[str]]:
    """Apply one contact; returns (vertex informed, kind) or (None, None)."""
    caller_informed = informed[caller]
    callee_informed = informed[callee]
    if caller_informed == callee_informed:
        return None, None
    if caller_informed:
        if mode in ("push", "push-pull"):
            informed[callee] = True
            informed_time[callee] = now
            parent[callee] = caller
            kind[callee] = "push"
            return callee, "push"
        return None, None
    # Caller is uninformed, callee informed: a pull.
    if mode in ("pull", "push-pull"):
        informed[caller] = True
        informed_time[caller] = now
        parent[caller] = callee
        kind[caller] = "pull"
        return caller, "pull"
    return None, None


# ---------------------------------------------------------------------- #
# Per-trial scenario state, shared by both runners
# ---------------------------------------------------------------------- #
class _ScenarioState:
    """Everything a runtime scenario changes about one trial.

    Built before the runner draws anything: the ``Delay`` rates are the
    first randomness a trial consumes (step 1 of the module's draw-order
    contract).  The runners consult it through two gates only —
    ``now >= next_boundary`` before a tick (:meth:`cross_boundaries`, step
    4), and the precomputed :attr:`perturbs` flag before an exchange
    (:meth:`suppresses`).  With no runtime scenario both gates stay shut:
    the next boundary is ``inf`` and nothing is suppressed.

    ``informed`` is the runner's own informed list (not a copy): the
    adaptive adversaries and the absorbing-state test observe it live.
    """

    __slots__ = (
        "n", "mode", "informed", "graph", "burst", "churn", "dynamic",
        "adaptive_loss", "lossy", "perturbs", "rates",
        "up", "churn_updates", "adaptive_churn", "crash_order",
        "crash_budget", "jam_budget", "bad", "current_loss", "next_epoch",
        "next_resample", "next_boundary", "silent_ticks", "flat", "target",
    )

    def __init__(
        self,
        graph: Graph,
        scenario: Optional[Scenario],
        mode: str,
        rng: np.random.Generator,
        informed: list[bool],
    ) -> None:
        # The base class is the inert scenario: every component is absent.
        parts = scenario if scenario is not None else Scenario()
        self.n = graph.num_vertices
        self.mode = mode
        self.informed = informed
        self.graph = graph
        self.burst = parts.burst
        self.churn = parts.churn
        self.dynamic = parts.dynamic
        self.adaptive_loss = parts.adaptive_loss
        self.lossy = (
            parts.loss_prob > 0.0
            or self.burst is not None
            or self.adaptive_loss is not None
        )
        delay = parts.delay
        self.rates = delay.draw_rates(graph, rng) if delay is not None else None
        self.up = self.churn.initial_up(graph) if self.churn is not None else None
        # Whether an exchange can be suppressed at all; when not, the
        # runners skip :meth:`suppresses` (and its contact accounting).
        self.perturbs = self.lossy or self.up is not None
        self.churn_updates = self.churn is not None and self.churn.epoch_draws
        self.adaptive_churn = self.churn is not None and self.churn.adaptive
        self.crash_order = (
            self.churn.ranking(graph) if self.adaptive_churn else None
        )
        self.crash_budget = self.churn.budget if self.adaptive_churn else 0
        self.jam_budget = (
            self.adaptive_loss.budget if self.adaptive_loss is not None else 0
        )
        self.bad = False
        self.current_loss = parts.loss_prob
        self.next_epoch = (
            1.0
            if (self.churn_updates or self.adaptive_churn or self.burst is not None)
            else math.inf
        )
        self.next_resample = (
            float(self.dynamic.period) if self.dynamic is not None else math.inf
        )
        self.next_boundary = min(self.next_epoch, self.next_resample)
        # Ticks whose caller was down: a crashed caller initiates nothing
        # (matching the sync engine's contact accounting), while a lost
        # message still counts — the contact happened, the payload didn't
        # arrive.
        self.silent_ticks = 0
        # The informed count at which no future contact can inform anyone:
        # n unless crashes are permanent, then recomputed whenever the down
        # set changes.
        self.flat = flat_adjacency(graph) if parts.can_absorb else None
        self.target = self.n
        self.refresh_target()

    def refresh_target(self) -> None:
        """Recompute the absorbing target (only under permanent crashes)."""
        if self.flat is not None:
            self.target = absorbing_target(
                self.flat.indptr, self.flat.indices, self.informed, self.up,
                self.crash_budget,
            )

    def budget_spent(self) -> Optional[int]:
        """Adaptive budget consumed so far (``None`` without adaptive parts)."""
        if not self.adaptive_churn and self.adaptive_loss is None:
            return None
        initial = (self.churn.budget if self.adaptive_churn else 0) + (
            self.adaptive_loss.budget if self.adaptive_loss is not None else 0
        )
        return initial - self.crash_budget - self.jam_budget

    def cross_boundaries(self, now: float, rng: np.random.Generator) -> bool:
        """Fire every epoch/resample boundary in (previous tick, now].

        Returns whether a resample occurred (the caller must refresh its
        adjacency view from :attr:`graph`).  A churn step that changes the
        down set refreshes :attr:`target`.
        """
        resampled = False
        while self.next_boundary <= now:
            if self.next_epoch <= self.next_resample:
                down_changed = False
                if self.churn_updates:
                    stepped = self.churn.step(self.up, rng.random(self.n))
                    down_changed = np.count_nonzero(stepped) != np.count_nonzero(self.up)
                    self.up = stepped
                elif self.adaptive_churn:
                    # The adaptive adversary observes the informed set at the
                    # epoch boundary and crashes deterministically — no draw,
                    # so the RNG stream matches the oblivious engines'.
                    spent = self.churn.crash_step(
                        self.up,
                        np.asarray(self.informed, dtype=bool),
                        self.crash_order,
                        self.crash_budget,
                    )
                    self.crash_budget -= spent
                    down_changed = spent > 0
                if down_changed:
                    self.refresh_target()
                if self.burst is not None:
                    self.bad = bool(self.burst.step_state(self.bad, rng.random()))
                    self.current_loss = float(self.burst.loss_at(self.bad))
                self.next_epoch += 1.0
            else:
                self.graph = self.dynamic.resample(self.graph, rng)
                self.next_resample += float(self.dynamic.period)
                resampled = True
            self.next_boundary = min(self.next_epoch, self.next_resample)
        return resampled

    def suppresses(self, caller: int, callee: int, draw: Optional[float]) -> bool:
        """Whether loss or churn stops this contact's exchange.

        ``draw`` is the tick's loss uniform, ``None`` unless :attr:`lossy`;
        the runner draws it whether or not it can matter, so the draw order
        never depends on protocol state.
        """
        up = self.up
        if up is not None and not up[caller]:
            self.silent_ticks += 1
        down = up is not None and not (up[caller] and up[callee])
        if self.adaptive_loss is not None:
            # Jam only would-transmit contacts (informative direction
            # between two up vertices) while budget remains.
            informed = self.informed
            if self.mode == "push-pull":
                informative = informed[caller] != informed[callee]
            elif self.mode == "push":
                informative = informed[caller] and not informed[callee]
            else:
                informative = not informed[caller] and informed[callee]
            jam = (
                not down
                and informative
                and self.jam_budget > 0
                and draw is not None
                and draw < self.adaptive_loss.p
            )
            if jam:
                self.jam_budget -= 1
            return down or jam
        return down or (draw is not None and draw < self.current_loss)


# ---------------------------------------------------------------------- #
# View 1: single global Poisson clock of rate n (sum of rates under Delay)
# ---------------------------------------------------------------------- #
def _run_global_view(
    graph: Graph,
    mode: str,
    rng: np.random.Generator,
    step_budget: int,
    time_budget: float,
    state: _ScenarioState,
    informed: list[bool],
    informed_time: list[float],
    parent: list[int],
    kind: list[Optional[str]],
    trace: Optional[list[ContactEvent]],
) -> tuple[int, int, int]:
    """Tick the superposed clock; returns (steps, pushes, pulls)."""
    n = graph.num_vertices
    adjacency = graph.adjacency
    degrees = graph.degrees
    perturbs = state.perturbs
    lossy = state.lossy
    next_boundary = state.next_boundary
    target = state.target

    cum_rates = None
    total_rate = float(n)
    if state.rates is not None:
        cum_rates = np.cumsum(state.rates)
        total_rate = float(cum_rates[-1])
    scale = 1.0 / total_rate  # mean gap of the superposed clock

    push_infections = 0
    pull_infections = 0
    now = 0.0
    steps = 0
    num_informed = 1
    while num_informed < target and steps < step_budget and now <= time_budget:
        this_batch = min(_REFILL, step_budget - steps)
        gaps = rng.exponential(scale, this_batch).tolist()
        if cum_rates is None:
            callers = rng.integers(0, n, this_batch).tolist()
        else:
            # Vertex v ticks with probability r_v / sum(r).
            weighted = np.searchsorted(cum_rates, rng.random(this_batch) * total_rate, side="right")
            callers = np.minimum(weighted, n - 1).tolist()
        neighbor_uniforms = rng.random(this_batch).tolist()
        loss_uniforms = rng.random(this_batch).tolist() if lossy else repeat(None)
        for gap, caller, u, loss in zip(gaps, callers, neighbor_uniforms, loss_uniforms):
            now += gap
            if now > time_budget:
                break
            if now >= next_boundary:
                if state.cross_boundaries(now, rng):
                    adjacency = state.graph.adjacency
                    degrees = state.graph.degrees
                next_boundary = state.next_boundary
                target = state.target
            steps += 1
            degree = degrees[caller]
            callee = adjacency[caller][min(int(u * degree), degree - 1)]
            if perturbs and state.suppresses(caller, callee, loss):
                informed_vertex, event_kind = None, None
            else:
                informed_vertex, event_kind = _exchange(
                    mode, caller, callee, informed, informed_time, parent, kind, now
                )
            if event_kind == "push":
                push_infections += 1
                num_informed += 1
            elif event_kind == "pull":
                pull_infections += 1
                num_informed += 1
            if trace is not None:
                trace.append(
                    ContactEvent(
                        time=now,
                        caller=caller,
                        callee=callee,
                        informed=informed_vertex,
                        kind=event_kind,
                    )
                )
            if num_informed >= target:
                break
    return steps, push_infections, pull_infections


# ---------------------------------------------------------------------- #
# Views 2 and 3: a priority queue over a clock table
# ---------------------------------------------------------------------- #
def _run_clock_view(
    graph: Graph,
    view: str,
    mode: str,
    rng: np.random.Generator,
    step_budget: int,
    time_budget: float,
    state: _ScenarioState,
    informed: list[bool],
    informed_time: list[float],
    parent: list[int],
    kind: list[Optional[str]],
    trace: Optional[list[ContactEvent]],
) -> tuple[int, int, int]:
    """Pop the earliest clock until a stop; returns (steps, pushes, pulls).

    Every clock has an owner (the caller), a mean gap, and — under
    ``edge_clocks`` — a fixed callee; ``node_clocks`` draws the callee
    uniformly from the owner's current neighbors on every tick.
    """
    n = graph.num_vertices
    adjacency = graph.adjacency
    degrees = graph.degrees
    rates = np.ones(n) if state.rates is None else state.rates
    draws_callee = view == "node_clocks"
    if draws_callee:
        # Vertex v ticks at rate r_v.
        owners = list(range(n))
        callees: list[int] = []
        scales = 1.0 / rates
    else:
        # Pair (v, w) ticks at rate r_v / deg(v), so v's pair clocks
        # superpose to v's own rate r_v.
        degree_array = np.asarray(degrees)
        owners = np.repeat(np.arange(n), degree_array).tolist()
        callees = [w for neighbors in adjacency for w in neighbors]
        scales = np.repeat(degree_array / rates, degree_array)
    heap = list(zip(rng.exponential(scales).tolist(), range(len(owners))))
    heapq.heapify(heap)
    clock_scales = scales.tolist()

    perturbs = state.perturbs
    lossy = state.lossy
    next_boundary = state.next_boundary
    target = state.target
    push_infections = 0
    pull_infections = 0
    steps = 0
    num_informed = 1
    while num_informed < target and steps < step_budget:
        now, clock = heapq.heappop(heap)
        if now > time_budget:
            break
        if now >= next_boundary:
            if state.cross_boundaries(now, rng):  # never under edge_clocks
                adjacency = state.graph.adjacency
                degrees = state.graph.degrees
            next_boundary = state.next_boundary
            target = state.target
        steps += 1
        caller = owners[clock]
        if draws_callee:
            degree = degrees[caller]
            callee = adjacency[caller][min(int(rng.random() * degree), degree - 1)]
        else:
            callee = callees[clock]
        if perturbs and state.suppresses(caller, callee, rng.random() if lossy else None):
            informed_vertex, event_kind = None, None
        else:
            informed_vertex, event_kind = _exchange(
                mode, caller, callee, informed, informed_time, parent, kind, now
            )
        if event_kind == "push":
            push_infections += 1
            num_informed += 1
        elif event_kind == "pull":
            pull_infections += 1
            num_informed += 1
        if trace is not None:
            trace.append(
                ContactEvent(
                    time=now,
                    caller=caller,
                    callee=callee,
                    informed=informed_vertex,
                    kind=event_kind,
                )
            )
        heapq.heappush(heap, (now + float(rng.exponential(clock_scales[clock])), clock))
    return steps, push_infections, pull_infections
