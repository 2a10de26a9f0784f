"""Result records produced by every protocol engine.

A single simulation trial produces a :class:`SpreadingResult` carrying the
per-vertex informing times, the overall spreading time (the paper's
``T(alg, G, u)``), the infection tree (who informed whom and whether by push
or pull), and bookkeeping counters.  The analysis layer consumes these
records; it never needs to re-inspect engine internals.

Batched runs (``repro.core.batch_engine``) produce a :class:`BatchTimes`
instead: a times-only record for ``B`` trials at once, with no parents,
infection kinds, or traces.  Every distributional quantity the analysis
layer needs — the spreading time ``T(alg, G, u)`` per trial and the time to
inform a given fraction of vertices — is derivable from the ``(B, n)``
informing-time matrix (or, when even that was skipped, from the per-trial
completion rounds/times), so batched Monte Carlo runs never pay for the
per-vertex Python-object bookkeeping of :class:`SpreadingResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "ContactEvent",
    "SpreadingResult",
    "BatchTimes",
    "InfectionKind",
    "TERMINATIONS",
]

#: How a vertex learned the rumor.
InfectionKind = str  # "source", "push", or "pull"

#: Why a trial stopped: every vertex informed, an absorbing state (no
#: future contact can inform anyone — see
#: :func:`repro.scenarios.absorbing_target`), or an exhausted round / step /
#: time budget.
TERMINATIONS = ("completed", "absorbed", "budget")


@dataclass(frozen=True)
class ContactEvent:
    """A single communication: ``caller`` contacted ``callee``.

    For synchronous protocols ``time`` is the (1-based) round number; for
    asynchronous protocols it is the continuous Poisson-clock time.
    ``informed`` names the vertex (if any) that became informed because of
    this contact, and ``kind`` records whether that was a push or a pull.
    """

    time: float
    caller: int
    callee: int
    informed: Optional[int] = None
    kind: Optional[InfectionKind] = None


@dataclass(frozen=True)
class SpreadingResult:
    """The outcome of one rumor-spreading simulation.

    Attributes:
        protocol: canonical protocol name (``"pp"``, ``"pp-a"``, ``"push"``,
            ``"pull"``, ``"push-a"``, ``"pull-a"``, ``"ppx"``, ``"ppy"``).
        graph_name: display name of the simulated graph.
        num_vertices: number of vertices of the simulated graph.
        source: the initially informed vertex ``u``.
        informed_time: per-vertex informing time (round number for
            synchronous protocols, clock time for asynchronous ones); the
            source has time 0; vertices never informed carry ``math.inf``.
        parent: per-vertex id of the vertex it learned the rumor from
            (``-1`` for the source and for never-informed vertices).
        infection_kind: per-vertex ``"source"``/``"push"``/``"pull"``/``None``.
        completed: whether every vertex was informed within the budget.
        rounds: number of synchronous rounds executed (``None`` for
            asynchronous protocols).
        steps: number of asynchronous steps executed (``None`` for
            synchronous protocols).
        push_infections / pull_infections: how many vertices learned the
            rumor via push / pull.
        total_contacts: total number of communications simulated.
        adversary_budget_spent: budget units an adaptive adversary
            (:class:`~repro.scenarios.AdaptiveCrash` /
            :class:`~repro.scenarios.AdaptiveLoss`) consumed during the run
            (``None`` when no adaptive scenario component was active).
        trace: optional list of every contact (only populated when the
            engine was asked to record a trace; traces are large).
        termination: why the run stopped, one of :data:`TERMINATIONS`.
            Left unset, it follows ``completed`` (``"completed"`` or
            ``"budget"``); engines pass ``"absorbed"`` explicitly.
    """

    protocol: str
    graph_name: str
    num_vertices: int
    source: int
    informed_time: tuple[float, ...]
    parent: tuple[int, ...]
    infection_kind: tuple[Optional[InfectionKind], ...]
    completed: bool
    rounds: Optional[int] = None
    steps: Optional[int] = None
    push_infections: int = 0
    pull_infections: int = 0
    total_contacts: int = 0
    adversary_budget_spent: Optional[int] = None
    trace: Optional[tuple[ContactEvent, ...]] = field(default=None, repr=False)
    termination: Optional[str] = None

    def __post_init__(self) -> None:
        if self.termination is None:
            object.__setattr__(
                self, "termination", "completed" if self.completed else "budget"
            )
        elif self.termination not in TERMINATIONS:
            raise ValueError(
                f"termination must be one of {TERMINATIONS}, got {self.termination!r}"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def spreading_time(self) -> float:
        """The rumor spreading time ``T(alg, G, u)``: the last informing time.

        Infinite when the run did not complete within its budget.
        """
        return max(self.informed_time)

    @property
    def num_informed(self) -> int:
        """How many vertices were informed by the end of the run."""
        return sum(1 for t in self.informed_time if math.isfinite(t))

    @property
    def is_synchronous(self) -> bool:
        """Whether the producing protocol is round based."""
        return self.rounds is not None

    def informed_fraction(self) -> float:
        """Fraction of vertices informed by the end of the run."""
        return self.num_informed / self.num_vertices

    def time_to_inform_fraction(self, fraction: float) -> float:
        """Earliest time by which at least ``fraction`` of vertices are informed.

        Used by the social-network experiment (E7), which compares the time
        to inform e.g. 50% or 90% of the vertices across models.  Returns
        ``math.inf`` when the run never reached the requested fraction.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        needed = math.ceil(fraction * self.num_vertices)
        finite_times = sorted(t for t in self.informed_time if math.isfinite(t))
        if len(finite_times) < needed:
            return math.inf
        return finite_times[needed - 1]

    def informed_counts_over_time(self) -> list[tuple[float, int]]:
        """The step function ``t -> |informed at time t|`` as (time, count) pairs."""
        finite_times = sorted(t for t in self.informed_time if math.isfinite(t))
        curve: list[tuple[float, int]] = []
        for index, time in enumerate(finite_times, start=1):
            if curve and curve[-1][0] == time:
                curve[-1] = (time, index)
            else:
                curve.append((time, index))
        return curve

    def infection_path(self, vertex: int) -> list[int]:
        """The path ``source -> ... -> vertex`` along which the rumor travelled.

        This is the path ``π_v`` used in the proofs of Lemmas 9 and 10.
        Raises ``ValueError`` if ``vertex`` was never informed.
        """
        if not (0 <= vertex < self.num_vertices):
            raise ValueError(f"vertex {vertex} out of range")
        if not math.isfinite(self.informed_time[vertex]):
            raise ValueError(f"vertex {vertex} was never informed")
        path = [vertex]
        current = vertex
        while current != self.source:
            current = self.parent[current]
            if current < 0:
                raise ValueError(
                    f"broken parent chain at vertex {path[-1]} (corrupt result?)"
                )
            path.append(current)
        path.reverse()
        return path

    def summary(self) -> str:
        """One-line human readable summary for logs and examples."""
        status = "complete" if self.completed else "INCOMPLETE"
        clock = f"{self.rounds} rounds" if self.is_synchronous else f"{self.steps} steps"
        return (
            f"{self.protocol} on {self.graph_name} from {self.source}: "
            f"T={self.spreading_time:.3f} ({clock}, {self.num_informed}/"
            f"{self.num_vertices} informed, {status})"
        )


@dataclass(frozen=True, eq=False)
class BatchTimes:
    """Times-only outcome of a batch of ``B`` independent simulation trials.

    Produced by :mod:`repro.core.batch_engine`.  Unlike
    :class:`SpreadingResult` this record carries no parents, infection kinds,
    or traces — only what the Monte Carlo statistics need — so batched runs
    skip all per-vertex Python-object materialization.

    Attributes:
        protocol: canonical protocol name (``"pp"``, ``"pp-a"``, ...).
        graph_name: display name of the simulated graph.
        num_vertices: number of vertices ``n`` of the simulated graph.
        sources: ``(B,)`` int array of per-trial source vertices.
        completed: ``(B,)`` bool array; whether each trial informed everyone
            within its budget.
        completion_time: ``(B,)`` float array; the spreading time
            ``T(alg, G, u)`` of each trial (round number for synchronous
            protocols, continuous clock time for asynchronous ones), or
            ``inf`` for trials that did not complete.
        informed_time: optional ``(B, n)`` float matrix of per-vertex
            informing times (``inf`` for never-informed vertices).  ``None``
            when the engine ran in scalar mode (``record_times=False``),
            which is enough for spreading-time statistics but not for
            coverage fractions.
        rounds: ``(B,)`` int array of synchronous rounds executed per trial
            (``None`` for asynchronous protocols).
        steps: ``(B,)`` int array of asynchronous clock ticks executed per
            trial (``None`` for synchronous protocols).
        termination: ``(B,)`` string array; why each trial stopped, one of
            :data:`TERMINATIONS`.  Left unset, it follows ``completed``
            (``"completed"`` or ``"budget"``).
    """

    protocol: str
    graph_name: str
    num_vertices: int
    sources: np.ndarray
    completed: np.ndarray
    completion_time: np.ndarray
    informed_time: Optional[np.ndarray] = field(default=None, repr=False)
    rounds: Optional[np.ndarray] = None
    steps: Optional[np.ndarray] = None
    termination: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.termination is None:
            object.__setattr__(
                self,
                "termination",
                np.where(self.completed, "completed", "budget").astype("<U9"),
            )

    @property
    def num_trials(self) -> int:
        """The batch size ``B``."""
        return int(self.sources.shape[0])

    @property
    def is_synchronous(self) -> bool:
        """Whether the producing protocol is round based."""
        return self.rounds is not None

    def spreading_times(self) -> np.ndarray:
        """Per-trial spreading times ``T(alg, G, u)`` as a ``(B,)`` array."""
        return self.completion_time

    def time_to_inform_fraction(self, fraction: float) -> np.ndarray:
        """Per-trial earliest time at which ``fraction`` of vertices know the rumor.

        Mirrors :meth:`SpreadingResult.time_to_inform_fraction` but for the
        whole batch at once; requires the engine to have recorded the full
        per-vertex time matrix.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if self.informed_time is None:
            raise ValueError(
                "per-vertex times were not recorded for this batch "
                "(engine ran with record_times=False)"
            )
        needed = math.ceil(fraction * self.num_vertices)
        # Sorting pushes inf (never informed) to the end, so the (needed-1)-th
        # order statistic is exactly the serial definition — including the
        # inf result for trials that never reached the fraction.
        ordered = np.sort(self.informed_time, axis=1)
        return ordered[:, needed - 1]

    def summary(self) -> str:
        """One-line human readable summary for logs and examples."""
        finite = self.completion_time[np.isfinite(self.completion_time)]
        mean = float(np.mean(finite)) if finite.size else math.inf
        return (
            f"{self.protocol} on {self.graph_name}: {self.num_trials} trials, "
            f"{int(np.count_nonzero(self.completed))} complete, "
            f"mean T={mean:.3f}"
        )


def check_result_consistency(result: SpreadingResult) -> list[str]:
    """Validate internal consistency of a result; returns a list of problems.

    Used by tests and by the experiment harness in "paranoid" mode.  An empty
    list means the record is consistent:

    * the source is informed at time 0 with no parent;
    * every informed non-source vertex has an informed parent with a strictly
      smaller informing time;
    * push/pull counters add up to the number of informed non-source vertices.
    """
    problems: list[str] = []
    n = result.num_vertices
    if not (0 <= result.source < n):
        problems.append(f"source {result.source} outside 0..{n - 1}")
        return problems
    if result.informed_time[result.source] != 0:
        problems.append("source informing time is not 0")
    if result.parent[result.source] != -1:
        problems.append("source has a parent")
    informed_non_source = 0
    for v in range(n):
        t = result.informed_time[v]
        if v == result.source:
            continue
        if math.isfinite(t):
            informed_non_source += 1
            p = result.parent[v]
            if p < 0 or p >= n:
                problems.append(f"vertex {v} informed but parent {p} invalid")
                continue
            if not math.isfinite(result.informed_time[p]):
                problems.append(f"vertex {v} informed by never-informed parent {p}")
            elif result.informed_time[p] >= t:
                # In every protocol the parent must have been informed
                # strictly before the child (pre-round snapshots for the
                # synchronous engines, continuous times for the asynchronous
                # ones), so equality is also inconsistent.
                problems.append(
                    f"vertex {v} informed at {t} not strictly after its parent {p} "
                    f"at {result.informed_time[p]}"
                )
            if result.infection_kind[v] not in ("push", "pull"):
                problems.append(f"vertex {v} informed with kind {result.infection_kind[v]!r}")
        else:
            if result.parent[v] != -1:
                problems.append(f"vertex {v} never informed but has parent {result.parent[v]}")
    if result.push_infections + result.pull_infections != informed_non_source:
        problems.append(
            "push + pull infection counters do not add up to informed non-source vertices"
        )
    if result.completed and informed_non_source != n - 1:
        problems.append("marked completed but not all vertices informed")
    return problems
