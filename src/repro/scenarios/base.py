"""Composable adversity scenarios for rumor-spreading simulations.

The paper's model assumes a static graph with perfectly reliable exchanges.
Real gossip deployments face none of those luxuries, so this module defines
*perturbation models* that every protocol engine understands:

* :class:`MessageLoss` — each push/pull exchange is independently dropped;
* :class:`BurstLoss` — correlated (bursty) loss: a two-state Gilbert–Elliott
  channel whose loss probability depends on the current channel state;
* :class:`NodeChurn` — vertices crash and recover; a crashed vertex neither
  initiates contacts nor answers them (it keeps the rumor while down);
* :class:`TargetedChurn` — an adversary crashes the top vertices by degree
  (or eccentricity) permanently at trial start;
* :class:`DynamicGraph` — the communication graph is re-drawn from a family
  every ``period`` rounds (synchronous) or time units (asynchronous);
* :class:`AdversarialSource` — the source is placed at the worst-case vertex
  by degree or eccentricity instead of where the caller asked;
* :class:`Delay` — heterogeneous clock rates for the asynchronous engines
  (slow and fast vertices instead of identical rate-1 Poisson clocks);
* :class:`AdaptiveCrash` — a budget-limited *adaptive* adversary that
  observes the informed set at every epoch and permanently crashes the
  top-``k`` currently-informed vertices by degree or eccentricity until
  its crash budget is spent;
* :class:`AdaptiveLoss` — a budget-limited adaptive jammer that
  concentrates loss on exchanges leaving the informed frontier: only
  contacts that would actually transmit the rumor are jammed (with
  probability ``p``, one unit of budget per jam).

Scenarios compose with ``|`` (or :func:`compose`) as long as each
perturbation category appears at most once (:class:`BurstLoss` shares the
loss category with :class:`MessageLoss`, :class:`TargetedChurn` the churn
category with :class:`NodeChurn`), e.g.::

    scenario = MessageLoss(0.2) | NodeChurn(0.05, 0.5)
    spread(graph, 0, protocol="pp", seed=1, scenario=scenario)

**Randomness discipline.**  Every engine consumes scenario randomness from
the per-trial generator in one documented order so the serial engines and
the 2-D batch kernels stay bit-for-bit equivalent trial-for-trial:

1. graph resampling (at a :class:`DynamicGraph` boundary),
2. churn state update (one uniform per vertex; only for churn models with
   per-epoch randomness — :class:`TargetedChurn` is static and draws none),
3. burst-loss channel state update (one uniform),
4. contact selection (the unperturbed engines' own draws),
5. loss coin flips (one uniform per contact, drawn whenever a loss *or*
   burst-loss component is present — even while the channel is in a
   lossless state, so the streams stay aligned).

Steps 2 and 3 happen once per *epoch* — each synchronous round, each unit
of asynchronous simulated time — and an epoch boundary that ties with a
resample boundary fires first.  :class:`Delay` draws its per-vertex rates
once at trial start, before any round/tick randomness;
:class:`AdversarialSource` and :class:`TargetedChurn` are deterministic and
consume no randomness at all.

**Adaptive adversaries.**  :class:`AdaptiveCrash` and :class:`AdaptiveLoss`
*observe* protocol state (the informed masks the engines expose at every
epoch/contact) but are carefully slotted into the existing randomness
discipline so fixed-seed serial/batch equivalence is preserved:
:class:`AdaptiveCrash` consumes **no randomness** — it is a deterministic
function of the observed informed set, fired in the churn-update slot of
step 2 (its churn epochs activate the epoch boundaries without drawing) —
and :class:`AdaptiveLoss` consumes exactly the per-contact loss uniform of
step 5 (the same draw an oblivious :class:`MessageLoss` would make),
spending one unit of budget per suppressed would-transmit exchange, in
vertex order within a synchronous round.

The synchronous model updates churn (and burst) state once per round; the
asynchronous model updates it once per unit of simulated time (which a
synchronous round is), so one ``(crash_rate, recovery_rate)`` pair means
the same thing in both models.

**Absorbing states.**  When every crash is permanent and no dynamic graph
can reconnect the live part (:attr:`Scenario.can_absorb`), a trial can get
stuck short of informing everyone.  :func:`absorbing_target` is the single
test every engine uses: the informed count plus the uninformed up vertices
reachable from an informed up vertex (``n`` while an adaptive crash
adversary still has moves).  It is recomputed only when the down set
changes, and a trial stops — ``termination == "absorbed"`` — at the end of
the round or tick after which its informed count reaches it.  The stop
draws nothing, so every outcome field equals that of a run to the full
budget.

**Clock-queue views.**  The asynchronous ``node_clocks``/``edge_clocks``
views support every runtime scenario except a :class:`DynamicGraph` under
``edge_clocks`` (resampling the graph would change the per-pair clock set
itself; use the ``node_clocks`` or ``global`` view).  Churn never stops a
clock — a crashed vertex's clocks keep ticking, its exchanges are simply
suppressed — and :class:`Delay` reweights the per-clock rates (vertex ``v``
ticks at rate ``r_v``; pair ``(v, w)`` at rate ``r_v / deg(v)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.caching import IdentityLRU
from repro.errors import ScenarioError
from repro.graphs.base import Graph
from repro.graphs.csr_build import frontier_neighbors

__all__ = [
    "Scenario",
    "MessageLoss",
    "BurstLoss",
    "NodeChurn",
    "TargetedChurn",
    "AdaptiveCrash",
    "AdaptiveLoss",
    "absorbing_target",
    "DynamicGraph",
    "AdversarialSource",
    "Delay",
    "ComposedScenario",
    "compose",
    "as_scenario",
    "scenario_source",
    "select_adversarial_source",
    "FamilyResampler",
    "SOURCE_STRATEGIES",
    "TARGETED_CHURN_CRITERIA",
    "ScenarioLike",
]

#: Signature of a :class:`DynamicGraph` resampler: maps the current graph and
#: the trial's generator to the next graph (same vertex count, no isolated
#: vertices; connectivity is *not* required — only the union over time is).
Resampler = Callable[[Graph, np.random.Generator], Graph]

#: Valid :class:`AdversarialSource` strategies.
SOURCE_STRATEGIES = ("max_degree", "min_degree", "max_eccentricity", "min_eccentricity")


class Scenario:
    """Base class of all adversity scenarios.

    A scenario is a bundle of up to five orthogonal perturbation
    *categories*; each concrete model fills exactly one and composition
    merges them.  Engines read the category accessors (:attr:`loss_prob`,
    :attr:`churn`, :attr:`dynamic`, :attr:`delay`) and ignore the categories
    they do not implement support for — unsupported combinations raise
    :class:`~repro.errors.ScenarioError` instead of being silently dropped.
    """

    #: Probability that a single exchange is lost (0 = reliable).  Burst
    #: loss keeps this at 0 — its state-dependent probability is read
    #: through :attr:`burst` instead.
    loss_prob: float = 0.0

    #: Whether the churn component adapts to the observed informed set.
    #: ``True`` only on :class:`AdaptiveCrash`; engines use it to activate
    #: epoch boundaries for a churn model whose update draws nothing
    #: (``epoch_draws`` stays ``False`` so the random-churn draw slot is
    #: untouched).
    adaptive = False

    @property
    def burst(self) -> Optional["BurstLoss"]:
        """The correlated (Gilbert–Elliott) loss component, if any."""
        return None

    @property
    def adaptive_loss(self) -> Optional["AdaptiveLoss"]:
        """The adaptive (budget-limited, frontier-targeting) loss component."""
        return None

    @property
    def churn(self) -> Optional["Scenario"]:
        """The churn component (:class:`NodeChurn` or :class:`TargetedChurn`), if any."""
        return None

    @property
    def dynamic(self) -> Optional["DynamicGraph"]:
        """The dynamic-graph component, if any."""
        return None

    @property
    def delay(self) -> Optional["Delay"]:
        """The heterogeneous-clock component, if any."""
        return None

    @property
    def source_strategy(self) -> Optional[str]:
        """The adversarial source-placement strategy, if any."""
        return None

    @property
    def can_absorb(self) -> bool:
        """Whether a trial can get stuck short of informing everyone.

        True only when every crash is permanent (:class:`TargetedChurn`,
        :class:`AdaptiveCrash`, :class:`NodeChurn` with ``recovery_rate=0``)
        and no :class:`DynamicGraph` can reconnect the live part of the
        graph.  Engines compute :func:`absorbing_target` only then; every
        other run keeps the plain ``num_informed == n`` stop.
        """
        churn = self.churn
        return churn is not None and churn.permanent and self.dynamic is None

    def components(self) -> tuple["Scenario", ...]:
        """The atomic scenarios this one is composed of."""
        return (self,)

    def runtime_active(self) -> bool:
        """Whether the scenario perturbs the simulation itself.

        :class:`AdversarialSource` only changes the starting vertex, so a
        pure source scenario is runtime-inert and runs on every engine
        (including the analysis-only auxiliary processes).
        """
        return (
            self.loss_prob > 0.0
            or self.burst is not None
            or self.adaptive_loss is not None
            or self.churn is not None
            or self.dynamic is not None
            or self.delay is not None
        )

    def spec(self) -> str:
        """Canonical ``name:param=value,...`` form (round-trips through the CLI)."""
        raise NotImplementedError

    def __or__(self, other: "Scenario") -> "Scenario":
        return compose(self, other)

    def __repr__(self) -> str:
        return f"<scenario {self.spec()}>"


def _check_probability(name: str, value: float, *, allow_one: bool = False) -> float:
    value = float(value)
    upper_ok = value <= 1.0 if allow_one else value < 1.0
    if not (0.0 <= value and upper_ok):
        bound = "[0, 1]" if allow_one else "[0, 1)"
        raise ScenarioError(f"{name} must be in {bound}, got {value}")
    return value


@dataclass(frozen=True, repr=False)
class MessageLoss(Scenario):
    """Each exchange is independently lost with probability ``p``.

    The caller still spends its contact (the coupon is consumed), but the
    rumor is not transmitted in either direction — the lossy analogue of a
    dropped packet.  ``p`` must be in ``[0, 1)``; with ``p = 1`` the rumor
    could never spread.
    """

    p: float

    def __post_init__(self) -> None:
        _check_probability("loss probability p", self.p)

    @property
    def loss_prob(self) -> float:  # type: ignore[override]
        return self.p

    def spec(self) -> str:
        return f"loss:p={self.p:g}"


@dataclass(frozen=True, repr=False)
class BurstLoss(Scenario):
    """Correlated message loss: a two-state Gilbert–Elliott channel.

    The channel is either *good* or *bad*; every exchange is lost with the
    state's loss probability (``p_loss_good`` in the good state — 0 by
    default — and ``p_loss_bad`` in the bad state).  The state is shared by
    all vertices of a trial and steps once per epoch — each synchronous
    round / each unit of asynchronous simulated time, the same cadence as
    :class:`NodeChurn` — flipping good→bad with probability ``p_gb`` and
    bad→good with probability ``p_bg``.  Trials start in the good state.

    Unlike :class:`MessageLoss` (its memoryless special case), losses
    cluster into bursts whose mean length is ``1 / p_bg`` epochs.  The
    long-run fraction of lost exchanges is :attr:`stationary_loss_rate`.
    ``p_bg`` must be positive so the channel always escapes the bad state;
    ``p_loss_bad = 1`` (a total outage while bad) is allowed for the same
    reason.  Shares the loss category with :class:`MessageLoss`, so the two
    cannot be composed.
    """

    p_gb: float
    p_bg: float
    p_loss_bad: float
    p_loss_good: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("p_gb", self.p_gb, allow_one=True)
        _check_probability("p_bg", self.p_bg, allow_one=True)
        if self.p_bg <= 0.0:
            raise ScenarioError(
                f"p_bg must be positive (the channel must escape the bad state), "
                f"got {self.p_bg}"
            )
        _check_probability("p_loss_bad", self.p_loss_bad, allow_one=True)
        _check_probability("p_loss_good", self.p_loss_good)

    @property
    def burst(self) -> Optional["BurstLoss"]:  # type: ignore[override]
        return self

    def step_state(self, bad, draws):
        """Advance the channel state one epoch given one uniform per trial.

        Works elementwise on arrays (the batched kernels' per-trial state
        vectors) and on scalars alike; the single definition every engine
        uses, like :meth:`NodeChurn.step`.
        """
        return np.where(bad, draws >= self.p_bg, draws < self.p_gb)

    def loss_at(self, bad):
        """The loss probability in the given state(s) (elementwise)."""
        return np.where(bad, self.p_loss_bad, self.p_loss_good)

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run fraction of lost exchanges (epochs weighted equally)."""
        total = self.p_gb + self.p_bg
        bad_fraction = self.p_gb / total
        return bad_fraction * self.p_loss_bad + (1.0 - bad_fraction) * self.p_loss_good

    def spec(self) -> str:
        return (
            f"burst-loss:p_gb={self.p_gb:g},p_bg={self.p_bg:g},"
            f"p_loss_bad={self.p_loss_bad:g},p_loss_good={self.p_loss_good:g}"
        )


@dataclass(frozen=True, repr=False)
class NodeChurn(Scenario):
    """Vertices crash and recover; crashed vertices are silent.

    At every churn epoch (each synchronous round / each unit of asynchronous
    time) every up vertex crashes with probability ``crash_rate`` and every
    down vertex recovers with probability ``recovery_rate``, independently.
    A crashed vertex neither initiates contacts nor answers them, but keeps
    the rumor if it already had it.  All vertices start up.

    With ``recovery_rate = 0`` crashes are permanent, and the live part of
    the graph can cut the rumor off for good.  Every engine then stops the
    trial as soon as no uninformed up vertex is reachable from an informed
    up vertex (see :func:`absorbing_target`) and reports it incomplete with
    ``termination == "absorbed"``; pass ``on_budget_exhausted="partial"`` to
    get that result back instead of an error.
    """

    crash_rate: float
    recovery_rate: float = 0.5

    #: This churn model needs one uniform per vertex per epoch; engines gate
    #: the per-epoch :meth:`step` draws on this flag (static models like
    #: :class:`TargetedChurn` set it to ``False`` and are never stepped).
    epoch_draws = True

    def __post_init__(self) -> None:
        _check_probability("crash_rate", self.crash_rate)
        _check_probability("recovery_rate", self.recovery_rate, allow_one=True)

    @property
    def churn(self) -> Optional["NodeChurn"]:  # type: ignore[override]
        return self

    def initial_up(self, graph: Graph) -> np.ndarray:
        """The up/down state at trial start: every vertex up."""
        return np.ones(graph.num_vertices, dtype=bool)

    @property
    def permanent(self) -> bool:
        """Whether a crashed vertex stays down for good (no recovery)."""
        return self.recovery_rate == 0.0

    def step(self, up: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Advance the up/down state one epoch given one uniform per vertex.

        The single definition of the transition every engine uses — the
        serial/batch fixed-seed equivalence contract depends on all code
        paths applying the identical comparison to the identical draws.
        """
        return np.where(up, draws >= self.crash_rate, draws < self.recovery_rate)

    def spec(self) -> str:
        return f"churn:crash_rate={self.crash_rate:g},recovery_rate={self.recovery_rate:g}"


#: Valid :class:`TargetedChurn` ranking criteria.
TARGETED_CHURN_CRITERIA = ("degree", "eccentricity")


@dataclass(frozen=True, repr=False)
class TargetedChurn(Scenario):
    """An adversary permanently crashes the worst-case vertices at trial start.

    The top ``floor(fraction * n)`` vertices — capped at ``n - 1`` so at
    least one vertex stays up — ranked by ``by`` (``"degree"``: hubs first;
    ``"eccentricity"``: the periphery first; ties towards the smallest
    vertex id) start crashed and never recover.  Crashed vertices behave exactly as under :class:`NodeChurn`
    — silent in both directions, keeping the rumor if they somehow hold it
    — but the state is deterministic and static, so the model consumes no
    randomness at all.

    Crashing the hubs can disconnect the live part of the graph — or cut
    the source off at trial start.  Every engine stops such a trial as soon
    as no uninformed up vertex is reachable from an informed up vertex (see
    :func:`absorbing_target`) and reports it incomplete with
    ``termination == "absorbed"``; pass ``on_budget_exhausted="partial"`` to
    get that result back instead of an error.  Under a :class:`DynamicGraph`
    the targets are ranked once on the *initial* graph and stay fixed (and
    no trial is ever absorbed: a resample can reconnect the live part).
    Shares the churn category with :class:`NodeChurn`, so the two cannot
    compose.
    """

    fraction: float
    by: str = "degree"

    #: Static state: engines skip the per-epoch churn update entirely.
    epoch_draws = False
    #: Crashed vertices never recover.
    permanent = True

    def __post_init__(self) -> None:
        _check_probability("fraction", self.fraction, allow_one=True)
        if self.by not in TARGETED_CHURN_CRITERIA:
            raise ScenarioError(
                f"unknown targeting criterion {self.by!r}; "
                f"expected one of {TARGETED_CHURN_CRITERIA}"
            )

    @property
    def churn(self) -> Optional["TargetedChurn"]:  # type: ignore[override]
        return self

    def initial_up(self, graph: Graph) -> np.ndarray:
        """The static up/down mask: the targeted vertices are down."""
        n = graph.num_vertices
        up = np.ones(n, dtype=bool)
        crashed = min(int(self.fraction * n), n - 1)
        if crashed > 0:
            if self.by == "degree":
                scores = np.asarray(graph.degrees, dtype=np.int64)
            else:
                from repro.graphs.properties import all_eccentricities

                scores = all_eccentricities(graph)
            # Stable sort on vertex id, then stable sort by descending
            # score: ties resolve towards the smallest id.
            order = np.argsort(-scores, kind="stable")
            up[order[:crashed]] = False
        return up

    def spec(self) -> str:
        return f"targeted-churn:fraction={self.fraction:g},by={self.by}"


# Adaptive-crash vertex rankings scan the whole graph (and the
# eccentricity criterion runs the all-sources BFS); memoise per
# (graph, criterion) like the adversarial-source cache below.
_RANKING_CACHE = IdentityLRU(128)


def _priority_order(graph: Graph, by: str) -> np.ndarray:
    """Vertices of ``graph`` sorted by descending ``by``-score, ties towards
    the smallest id — the shared crash-priority ranking of the targeting
    adversaries."""
    cached = _RANKING_CACHE.get(graph, by)
    if cached is not None:
        return cached
    if by == "degree":
        scores = np.asarray(graph.degrees, dtype=np.int64)
    else:
        from repro.graphs.properties import all_eccentricities

        scores = all_eccentricities(graph)
    order = np.argsort(-scores, kind="stable")
    return _RANKING_CACHE.put(graph, order, by)


@dataclass(frozen=True, repr=False)
class AdaptiveCrash(Scenario):
    """A budget-limited adversary crashing the top informed vertices per epoch.

    At every epoch (each synchronous round / each unit of asynchronous
    simulated time, *before* the round's contacts) the adversary observes
    the informed set and permanently crashes up to ``k`` currently-up,
    currently-informed vertices — highest ``by``-score first (``"degree"``:
    hubs; ``"eccentricity"``: the periphery; ties towards the smallest id,
    ranked once on the initial graph) — until ``budget`` total crashes have
    been spent.  Crashed vertices behave exactly as under
    :class:`NodeChurn`: silent in both directions, keeping the rumor.

    Unlike every oblivious scenario the crash schedule depends on protocol
    state, but the model consumes **no randomness** — it is a deterministic
    function of the observed informed masks — so fixed-seed serial/batch
    equivalence holds with unchanged RNG streams.  Crashing informed hubs
    can stall spreading entirely.  Once the adversary has no move left (its
    budget is spent, or no informed vertex is up) and no uninformed up
    vertex is reachable from an informed up vertex, every engine stops the
    trial and reports it incomplete with ``termination == "absorbed"`` (see
    :func:`absorbing_target`) — the remaining crashes play out first, so
    the budget spend is that of a run to the full budget.  Pass
    ``on_budget_exhausted="partial"`` to get that result back instead of an
    error.  Shares the churn category with
    :class:`NodeChurn`/:class:`TargetedChurn` (composes with loss, dynamic,
    delay, and adversarial-source components, including
    :class:`AdaptiveLoss`).
    """

    budget: int
    k: int = 1
    by: str = "degree"

    #: Consumes no per-epoch randomness (the churn-update draw slot stays
    #: empty) …
    epoch_draws = False
    #: … but the epoch boundaries must fire so the crash schedule advances.
    adaptive = True
    #: Crashed vertices never recover.
    permanent = True

    def __post_init__(self) -> None:
        budget = int(self.budget)
        k = int(self.k)
        if budget != self.budget or budget < 0:
            raise ScenarioError(f"budget must be a non-negative integer, got {self.budget!r}")
        if k != self.k or k < 1:
            raise ScenarioError(f"k must be a positive integer, got {self.k!r}")
        if self.by not in TARGETED_CHURN_CRITERIA:
            raise ScenarioError(
                f"unknown targeting criterion {self.by!r}; "
                f"expected one of {TARGETED_CHURN_CRITERIA}"
            )
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "k", k)

    @property
    def churn(self) -> Optional["AdaptiveCrash"]:  # type: ignore[override]
        return self

    def initial_up(self, graph: Graph) -> np.ndarray:
        """Every vertex starts up; crashes only happen at epoch boundaries."""
        return np.ones(graph.num_vertices, dtype=bool)

    def ranking(self, graph: Graph) -> np.ndarray:
        """The static crash-priority order (computed once per graph)."""
        return _priority_order(graph, self.by)

    def crash_step(
        self, up: np.ndarray, informed: np.ndarray, order: np.ndarray, budget: int
    ) -> int:
        """Fire one epoch: crash up to ``min(k, budget)`` informed vertices.

        Mutates ``up`` in place and returns how many crashes were spent —
        the single definition of the adaptive transition every engine uses
        (the serial/batch equivalence contract, like :meth:`NodeChurn.step`).
        ``informed`` is the informed mask observed at the epoch boundary;
        ``order`` the precomputed :meth:`ranking`.
        """
        if budget <= 0:
            return 0
        limit = min(self.k, int(budget))
        victims = order[informed[order] & up[order]][:limit]
        if victims.size:
            up[victims] = False
        return int(victims.size)

    def spec(self) -> str:
        return f"adaptive-crash:budget={self.budget},k={self.k},by={self.by}"


def absorbing_target(
    indptr: np.ndarray,
    indices: np.ndarray,
    informed: np.ndarray,
    up: np.ndarray,
    crash_budget: int = 0,
) -> int:
    """How many vertices a trial can still end up informing.

    The single definition of the absorbing-state test every engine uses
    (like :meth:`NodeChurn.step` and :meth:`AdaptiveCrash.crash_step` for
    the transitions).  Under a scenario whose crashes are permanent
    (:attr:`Scenario.can_absorb`), the vertices that can ever learn the
    rumor are the informed ones plus every uninformed *up* vertex reachable
    from an informed up vertex along a path of up vertices.  Returns that
    count; a trial whose informed count reaches it is absorbed — no future
    contact can inform anyone — and engines stop it there.

    ``crash_budget`` is an :class:`AdaptiveCrash` adversary's remaining
    budget.  While it is positive and some informed vertex is up, the
    adversary still has moves that change the outcome fields, so the target
    is ``n`` (never reached short of completion) until those crashes play
    out.  ``(indptr, indices)`` is the graph's CSR; ``informed`` and ``up``
    are the trial's boolean masks.
    """
    informed = np.asarray(informed, dtype=bool)
    live_informed = informed & up
    if crash_budget > 0 and live_informed.any():
        return int(informed.size)
    seen = informed | ~up
    frontier = np.flatnonzero(live_informed)
    reachable = 0
    while frontier.size:
        neighbors = frontier_neighbors(indptr, indices, frontier)
        frontier = np.unique(neighbors[~seen[neighbors]])
        seen[frontier] = True
        reachable += frontier.size
    return int(np.count_nonzero(informed)) + reachable


@dataclass(frozen=True, repr=False)
class AdaptiveLoss(Scenario):
    """A budget-limited jammer concentrating loss on the informed frontier.

    Where :class:`MessageLoss` drops every exchange with probability ``p``,
    this adversary observes each contact and spends its jam budget only on
    exchanges that would actually transmit the rumor — an informative
    contact (exactly one endpoint informed, in a direction the protocol
    allows) between two up vertices.  Each such contact is jammed with
    probability ``p`` while budget remains, and every jam spends one unit;
    all other contacts are never dropped.  Within a synchronous round the
    budget is spent in vertex-id order.

    The jam coin reuses the oblivious loss draw slot (one uniform per
    contact whenever a loss component is present), so fixed-seed
    serial/batch equivalence holds with unchanged RNG streams.  Shares the
    loss category with :class:`MessageLoss`/:class:`BurstLoss` (composes
    with churn — including :class:`AdaptiveCrash` — dynamic, delay, and
    adversarial-source components).
    """

    p: float
    budget: int

    def __post_init__(self) -> None:
        _check_probability("jam probability p", self.p, allow_one=True)
        budget = int(self.budget)
        if budget != self.budget or budget < 0:
            raise ScenarioError(f"budget must be a non-negative integer, got {self.budget!r}")
        object.__setattr__(self, "budget", budget)

    @property
    def adaptive_loss(self) -> Optional["AdaptiveLoss"]:  # type: ignore[override]
        return self

    def spec(self) -> str:
        return f"adaptive-loss:p={self.p:g},budget={self.budget}"


@dataclass(frozen=True, repr=False)
class DynamicGraph(Scenario):
    """Re-draw the communication graph every ``period`` rounds / time units.

    ``resampler(current_graph, rng)`` must return a graph on the *same*
    vertex set with no isolated vertices; individual samples need not be
    connected (the rumor spreads over the union of the graph process).  The
    graph handed to the engine is used for the first period, then the
    resampler takes over.  Use :class:`FamilyResampler` to redraw from a
    registered graph family.
    """

    resampler: Resampler
    period: int = 1

    def __post_init__(self) -> None:
        if not callable(self.resampler):
            raise ScenarioError(
                f"resampler must be callable (graph, rng) -> Graph, got {self.resampler!r}"
            )
        try:
            period = int(self.period)
        except (TypeError, ValueError):
            raise ScenarioError(
                f"period must be a positive integer, got {self.period!r}"
            ) from None
        if period != self.period or period < 1:
            raise ScenarioError(f"period must be a positive integer, got {self.period!r}")
        object.__setattr__(self, "period", period)

    @property
    def dynamic(self) -> Optional["DynamicGraph"]:  # type: ignore[override]
        return self

    def resample(self, graph: Graph, rng: np.random.Generator) -> Graph:
        """Draw the next graph and validate it against the engine's needs."""
        candidate = self.resampler(graph, rng)
        if not isinstance(candidate, Graph):
            raise ScenarioError(
                f"resampler returned {type(candidate).__name__}, expected a Graph"
            )
        if candidate.num_vertices != graph.num_vertices:
            raise ScenarioError(
                f"resampler changed the vertex count ({graph.num_vertices} -> "
                f"{candidate.num_vertices}); dynamic graphs must keep the vertex set"
            )
        if candidate.num_vertices > 1 and candidate.min_degree() < 1:
            raise ScenarioError(
                f"resampled graph {candidate.name} has an isolated vertex; "
                "every vertex needs at least one neighbor to contact"
            )
        return candidate

    def spec(self) -> str:
        label = getattr(self.resampler, "family_name", None) or getattr(
            self.resampler, "__name__", "custom"
        )
        return f"dynamic:family={label},period={self.period}"


@dataclass(frozen=True, repr=False)
class AdversarialSource(Scenario):
    """Place the source at the worst-case vertex instead of where asked.

    Strategies (ties broken towards the smallest vertex id):

    * ``"max_degree"`` / ``"min_degree"`` — the hub / the most isolated
      vertex (min-degree sources are the slow case for push on stars);
    * ``"max_eccentricity"`` — a peripheral vertex, maximising the
      diameter-driven lower bound ``dist(u, v)``;
    * ``"min_eccentricity"`` — the graph center (the *best* placement; useful
      as the optimistic baseline of a placement sweep).

    Overrides the ``source`` argument of :func:`repro.core.protocols.spread`
    and :func:`repro.analysis.montecarlo.run_trials`; consumes no randomness.
    """

    strategy: str = "max_eccentricity"

    def __post_init__(self) -> None:
        if self.strategy not in SOURCE_STRATEGIES:
            raise ScenarioError(
                f"unknown source strategy {self.strategy!r}; "
                f"expected one of {SOURCE_STRATEGIES}"
            )

    @property
    def source_strategy(self) -> Optional[str]:  # type: ignore[override]
        return self.strategy

    def spec(self) -> str:
        return f"adversarial-source:strategy={self.strategy}"


@dataclass(frozen=True, repr=False)
class Delay(Scenario):
    """Heterogeneous Poisson clock rates for the asynchronous engines.

    Every vertex ``v`` ticks at its own rate ``r_v`` instead of rate 1.
    Either pass explicit per-vertex ``rates``, or let each trial draw
    ``r_v ~ Uniform[low, high]`` from its own generator at trial start.
    Only meaningful for the asynchronous protocols; the synchronous engines
    reject it (rounds have no clocks to skew).
    """

    low: float = 0.5
    high: float = 2.0
    rates: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.rates is not None:
            values = tuple(float(r) for r in self.rates)
            if not values or min(values) <= 0.0:
                raise ScenarioError("explicit rates must be a non-empty positive sequence")
            object.__setattr__(self, "rates", values)
        else:
            if not (0.0 < float(self.low) <= float(self.high)):
                raise ScenarioError(
                    f"need 0 < low <= high for the rate range, got [{self.low}, {self.high}]"
                )

    @property
    def delay(self) -> Optional["Delay"]:  # type: ignore[override]
        return self

    def draw_rates(self, graph: Graph, rng: np.random.Generator) -> np.ndarray:
        """Per-vertex clock rates for one trial (consumes ``rng.random(n)``
        only when the rates are drawn rather than given)."""
        n = graph.num_vertices
        if self.rates is not None:
            if len(self.rates) != n:
                raise ScenarioError(
                    f"explicit rates have length {len(self.rates)} but the graph "
                    f"has {n} vertices"
                )
            return np.asarray(self.rates, dtype=float)
        return self.low + (self.high - self.low) * rng.random(n)

    def spec(self) -> str:
        if self.rates is not None:
            return f"delay:rates=<{len(self.rates)} fixed>"
        return f"delay:low={self.low:g},high={self.high:g}"


class ComposedScenario(Scenario):
    """Several atomic scenarios applied together (built by ``|``).

    Each perturbation category may appear at most once; composing two
    scenarios of the same category raises :class:`ScenarioError` (there is
    no meaningful way to, say, apply two loss probabilities — compose the
    probability arithmetic yourself instead).
    """

    def __init__(self, parts: Sequence[Scenario]) -> None:
        flattened: list[Scenario] = []
        for part in parts:
            if not isinstance(part, Scenario):
                raise ScenarioError(f"cannot compose non-scenario {part!r}")
            flattened.extend(part.components())
        if len(flattened) < 2:
            raise ScenarioError("a composition needs at least two scenarios")
        categories = [_category(part) for part in flattened]
        for category in categories:
            if categories.count(category) > 1:
                raise ScenarioError(
                    f"duplicate {category!r} component in composition; each "
                    "perturbation category may appear at most once"
                )
        self._parts = tuple(flattened)

    def components(self) -> tuple[Scenario, ...]:
        return self._parts

    def _find(self, category: str) -> Optional[Scenario]:
        for part in self._parts:
            if _category(part) == category:
                return part
        return None

    @property
    def loss_prob(self) -> float:  # type: ignore[override]
        part = self._find("loss")
        return part.loss_prob if part is not None else 0.0

    @property
    def burst(self) -> Optional[BurstLoss]:
        part = self._find("loss")
        return part.burst if part is not None else None

    @property
    def adaptive_loss(self) -> Optional[AdaptiveLoss]:
        part = self._find("loss")
        return part.adaptive_loss if part is not None else None

    @property
    def churn(self) -> Optional[Scenario]:
        part = self._find("churn")
        return part.churn if part is not None else None

    @property
    def dynamic(self) -> Optional[DynamicGraph]:
        part = self._find("dynamic")
        return part.dynamic if part is not None else None

    @property
    def delay(self) -> Optional[Delay]:
        part = self._find("delay")
        return part.delay if part is not None else None

    @property
    def source_strategy(self) -> Optional[str]:
        part = self._find("adversarial-source")
        return part.source_strategy if part is not None else None

    def spec(self) -> str:
        return "+".join(part.spec() for part in self._parts)


def _category(scenario: Scenario) -> str:
    if (
        scenario.loss_prob > 0.0
        or scenario.burst is not None
        or scenario.adaptive_loss is not None
        or isinstance(scenario, MessageLoss)
    ):
        return "loss"
    if scenario.churn is not None:
        return "churn"
    if scenario.dynamic is not None:
        return "dynamic"
    if scenario.delay is not None:
        return "delay"
    if scenario.source_strategy is not None:
        return "adversarial-source"
    return type(scenario).__name__


def compose(*scenarios: Scenario) -> Scenario:
    """Combine scenarios into one (the function form of the ``|`` operator)."""
    if not scenarios:
        raise ScenarioError("compose() needs at least one scenario")
    if len(scenarios) == 1:
        return scenarios[0]
    return ComposedScenario(scenarios)


#: Anything accepted where a scenario is expected: a :class:`Scenario`, a
#: CLI-style spec string like ``"loss:p=0.3"``, or ``None``.
ScenarioLike = Union[Scenario, str, None]


def as_scenario(scenario: ScenarioLike) -> Optional[Scenario]:
    """Normalise a scenario argument; parses CLI-style spec strings."""
    if scenario is None or isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, str):
        from repro.scenarios.registry import parse_scenario

        return parse_scenario(scenario)
    raise ScenarioError(
        f"expected a Scenario, a spec string, or None, got {type(scenario).__name__}"
    )


class FamilyResampler:
    """A picklable :class:`DynamicGraph` resampler drawing from a graph family.

    ``FamilyResampler("erdos_renyi")(graph, rng)`` builds a fresh family
    member of the current vertex count, seeded from the trial's generator.
    The family must realise the requested size exactly (``erdos_renyi``,
    ``random_regular_4``, ``cycle``, ``complete``, ... do; families that
    round the size, like ``hypercube``, will be rejected at resample time).
    """

    __slots__ = ("family_name",)

    def __init__(self, family_name: str) -> None:
        from repro.graphs.families import get_family

        get_family(family_name)  # validate eagerly
        self.family_name = family_name

    def __call__(self, graph: Graph, rng: np.random.Generator) -> Graph:
        from repro.graphs.families import get_family

        seed = int(rng.integers(0, 2**63 - 1))
        return get_family(self.family_name).build(graph.num_vertices, seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FamilyResampler({self.family_name!r})"


# ---------------------------------------------------------------------- #
# Adversarial source selection
# ---------------------------------------------------------------------- #
# Selection scans the whole graph (and eccentricity strategies run the
# all-sources BFS); memoise per (graph, strategy) so Monte Carlo drivers
# that resolve the source per trial do not recompute them.
_SOURCE_CACHE = IdentityLRU(128)


def select_adversarial_source(graph: Graph, strategy: str) -> int:
    """The vertex an :class:`AdversarialSource` strategy picks on ``graph``."""
    if strategy not in SOURCE_STRATEGIES:
        raise ScenarioError(
            f"unknown source strategy {strategy!r}; expected one of {SOURCE_STRATEGIES}"
        )
    cached = _SOURCE_CACHE.get(graph, strategy)
    if cached is not None:
        return cached

    degrees = graph.degrees
    if strategy == "max_degree":
        vertex = max(graph.vertices, key=lambda v: (degrees[v], -v))
    elif strategy == "min_degree":
        vertex = min(graph.vertices, key=lambda v: (degrees[v], v))
    else:
        # Eccentricity strategies need a connected graph (the engines require
        # connectivity anyway; this just surfaces the error earlier).  The
        # vectorised all-sources pass (cached per graph) replaces the old
        # one-BFS-per-vertex Python loop, which dominated wall time on
        # 10k-vertex adversarial-source sweeps.
        from repro.graphs.properties import all_eccentricities

        eccentricities = all_eccentricities(graph)
        if strategy == "max_eccentricity":
            vertex = int(np.argmax(eccentricities))
        else:
            vertex = int(np.argmin(eccentricities))

    return _SOURCE_CACHE.put(graph, int(vertex), strategy)


def scenario_source(
    scenario: Optional[Scenario], graph: Graph, requested: Union[int, str]
) -> Union[int, str]:
    """Apply a scenario's source strategy, if any, to the requested source.

    Returns the adversarially chosen vertex when the scenario carries an
    :class:`AdversarialSource` component (the requested source — including
    ``"random"`` — is overridden), otherwise the request unchanged.
    """
    if scenario is None or scenario.source_strategy is None:
        return requested
    return select_adversarial_source(graph, scenario.source_strategy)
