"""Absorbing-state termination: stop a trial once no contact can inform anyone.

Under permanent crashes (targeted churn, adaptive crash, churn without
recovery) the live part of the graph can cut the rumor off for good.  Every
engine then stops the trial instead of drawing contacts until its budget is
gone, and reports ``termination == "absorbed"``.  Three things are pinned:

* the outcome fields are those of a run to the full budget — a fixture
  written by a tree without the early stop (``tests/helpers/absorbing_golden``);
* an independent brute force (a plain BFS over the final state plus a
  replay of the adaptive adversary) agrees with every reported stop reason;
* the error mode still raises, naming the absorbed trials.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from helpers.absorbing_golden import (
    FIXTURE,
    GOLDEN_CASES,
    GOLDEN_PARALLEL_CASES,
    SAMPLE_TRIALS,
    record_case,
    record_parallel_case,
)
from helpers.equivalence import case_ids
from repro.analysis.montecarlo import run_trials
from repro.core.batch_engine import run_batch
from repro.core.protocols import spread
from repro.errors import SimulationError
from repro.graphs import complete_graph, cycle_graph, star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import spawn_generators
from repro.scenarios import (
    AdaptiveCrash,
    DynamicGraph,
    FamilyResampler,
    MessageLoss,
    NodeChurn,
    TargetedChurn,
)
from repro.telemetry.metrics import MetricsRegistry, collecting_metrics

BACKENDS = ["numpy", "jit"]

GOLDEN = json.loads(FIXTURE.read_text())


# --------------------------------------------------------------------- #
# Golden outcomes, pinned to a tree that ran every trial to its budget
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_ids(GOLDEN_CASES))
def test_serial_outcomes_match_golden(case):
    assert record_case(case) == GOLDEN["cases"][case.id]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_ids(GOLDEN_CASES))
def test_batched_outcomes_match_golden(case, backend):
    expected = GOLDEN["cases"][case.id]
    graph = case.graph_builder()
    registry = MetricsRegistry()
    with collecting_metrics(registry):
        batched = run_batch(
            graph, list(case.sources), case.protocol,
            rngs=spawn_generators(len(case.sources), case.seed),
            scenario=case.scenario, backend=backend, **case.options(),
        )
    for i, trial in enumerate(expected["trials"]):
        assert list(batched.informed_time[i]) == trial["informed_time"], i
        assert bool(batched.completed[i]) == trial["completed"]
        assert batched.completion_time[i] == trial["completion_time"]
    spends = [t["adversary_budget_spent"] for t in expected["trials"]]
    counters = registry.snapshot()["counters"]
    if spends[0] is not None:
        assert counters["scenario.adversary_budget_spent"] == sum(spends)
    sample = run_trials(
        graph, case.sources[0], case.protocol, trials=SAMPLE_TRIALS, seed=case.seed,
        scenario=case.scenario, engine_options={**case.options(), "backend": backend},
        batch=True,
    )
    assert list(sample.times) == expected["sample_times"]


@pytest.mark.parametrize(
    "case", GOLDEN_PARALLEL_CASES, ids=case_ids(GOLDEN_PARALLEL_CASES)
)
def test_parallel_sample_matches_golden(case):
    assert record_parallel_case(case) == GOLDEN["parallel"][case.id]


def test_golden_cases_stop_early():
    """The fixture settings do exercise the early stop, including a source
    cut off at trial start (zero work)."""
    stops = []
    for case in GOLDEN_CASES:
        graph = case.graph_builder()
        for source, rng in zip(case.sources, spawn_generators(len(case.sources), case.seed)):
            result = spread(
                graph, source, protocol=case.protocol, seed=rng,
                scenario=case.scenario, **case.options(),
            )
            work = result.rounds if result.rounds is not None else result.steps
            stops.append((result.termination, work))
    assert ("absorbed", 0) in stops
    assert sum(1 for reason, _ in stops if reason == "absorbed") >= 20


# --------------------------------------------------------------------- #
# Brute force: every reported stop reason, checked from the final state
# --------------------------------------------------------------------- #
_CHURN_STATES: list[np.ndarray] = []


@dataclass(frozen=True, repr=False)
class _RecordingChurn(NodeChurn):
    """Permanent random churn that keeps each up/down state it produces."""

    def step(self, up, draws):
        stepped = super().step(up, draws)
        _CHURN_STATES.append(np.array(stepped, dtype=bool))
        return stepped


def _final_up(graph, scenario, result) -> tuple[np.ndarray, int]:
    """The trial's final up mask and the adversary's remaining budget,
    rebuilt without the engines' scenario code."""
    n = graph.num_vertices
    churn = scenario.churn
    if isinstance(churn, TargetedChurn):
        order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
        up = np.ones(n, dtype=bool)
        up[order[: min(int(churn.fraction * n), n - 1)]] = False
        return up, 0
    if isinstance(churn, _RecordingChurn):
        return (_CHURN_STATES[-1] if _CHURN_STATES else np.ones(n, dtype=bool)), 0
    # AdaptiveCrash: replay its epochs on the informed sets the result
    # implies — round starts 1..rounds, or the unit times up to the last
    # executed tick.
    times = np.asarray(result.informed_time)
    if result.rounds is not None:
        epochs = [(r, times <= r - 1) for r in range(1, result.rounds + 1)]
    else:
        last = result.trace[-1].time if result.trace else 0.0
        epochs = [(t, times < t) for t in range(1, int(np.floor(last)) + 1)]
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    up = np.ones(n, dtype=bool)
    budget = churn.budget
    for _, informed in epochs:
        victims = [v for v in order if informed[v] and up[v]][: min(churn.k, budget)]
        up[victims] = False
        budget -= len(victims)
    assert churn.budget - budget == result.adversary_budget_spent
    return up, budget


def _absorbed_by_bfs(graph, informed: np.ndarray, up: np.ndarray, budget: int) -> bool:
    """No uninformed up vertex reachable through up vertices, and no
    adversary move left."""
    live_informed = [v for v in range(graph.num_vertices) if informed[v] and up[v]]
    if budget > 0 and live_informed:
        return False
    seen = set(live_informed)
    queue = deque(live_informed)
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            if up[w] and w not in seen:
                if not informed[w]:
                    return False
                seen.add(w)
                queue.append(w)
    return True


_BRUTE_SETTINGS = [
    ("pp", {"max_rounds": 12}),
    ("push", {"max_rounds": 12}),
    ("pull", {"max_rounds": 12}),
    ("pp-a", {"max_steps": 250}),
    ("push-a", {"max_steps": 250, "view": "node_clocks"}),
    ("pull-a", {"max_steps": 250, "view": "edge_clocks"}),
    ("pp-a", {"max_time": 3.0, "view": "node_clocks"}),
]

_BRUTE_SCENARIOS = [
    TargetedChurn(0.2),
    TargetedChurn(0.05) | MessageLoss(0.3),
    AdaptiveCrash(budget=3, k=1),
    AdaptiveCrash(budget=6, k=2) | MessageLoss(0.2),
    _RecordingChurn(0.12, recovery_rate=0.0),
]


@pytest.mark.parametrize("scenario", _BRUTE_SCENARIOS, ids=lambda s: s.spec())
@pytest.mark.parametrize(
    "protocol,options", _BRUTE_SETTINGS, ids=[f"{p}-{sorted(o)}" for p, o in _BRUTE_SETTINGS]
)
def test_stop_reason_agrees_with_brute_force(protocol, options, scenario):
    """Serial stop reasons match the brute force; both batched backends
    stop every trial for the same reason on the same round or tick."""
    options = {**options, "on_budget_exhausted": "partial"}
    reasons = set()
    for graph in (random_regular_graph(20, 3, seed=4), star_graph(12), cycle_graph(14)):
        sources = [i % graph.num_vertices for i in range(4)]
        serial = []
        for source, rng in zip(sources, spawn_generators(len(sources), 17)):
            _CHURN_STATES.clear()
            result = spread(
                graph, source, protocol=protocol, seed=rng, scenario=scenario,
                record_trace=True, **options,
            )
            serial.append(result)
            reasons.add(result.termination)
            if result.termination == "completed":
                assert result.completed
                continue
            informed = np.isfinite(result.informed_time)
            up, budget = _final_up(graph, scenario, result)
            assert _absorbed_by_bfs(graph, informed, up, budget) == (
                result.termination == "absorbed"
            ), (graph.name, source, result.termination)
        for backend in BACKENDS:
            batched = run_batch(
                graph, sources, protocol, rngs=spawn_generators(len(sources), 17),
                scenario=scenario, backend=backend, **options,
            )
            work = batched.rounds if batched.is_synchronous else batched.steps
            assert list(batched.termination) == [r.termination for r in serial]
            assert list(work) == [
                r.rounds if r.rounds is not None else r.steps for r in serial
            ]
    assert "absorbed" in reasons


# --------------------------------------------------------------------- #
# Where the early stop must not happen, and the error mode
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "scenario",
    [
        NodeChurn(0.2, recovery_rate=0.1),
        TargetedChurn(0.05) | DynamicGraph(FamilyResampler("erdos_renyi"), period=2),
    ],
    ids=["recovering-churn", "targeted-dynamic"],
)
def test_recoverable_scenarios_never_absorb(scenario):
    assert not scenario.can_absorb
    batched = run_batch(
        star_graph(12), 1, "pp", trials=6, seed=3, scenario=scenario,
        max_rounds=8, on_budget_exhausted="partial",
    )
    assert set(batched.termination) <= {"completed", "budget"}


@pytest.mark.parametrize("protocol", ["pp", "pp-a"])
@pytest.mark.parametrize("batched", [False, True])
def test_error_mode_names_the_absorbed_stop(protocol, batched):
    graph = star_graph(16)
    scenario = TargetedChurn(1 / 16)  # crashes the hub; the leaf source is cut off
    with pytest.raises(SimulationError, match="absorbed"):
        if batched:
            run_batch(graph, 1, protocol, trials=3, seed=1, scenario=scenario)
        else:
            spread(graph, 1, protocol=protocol, seed=1, scenario=scenario)


def test_termination_counters_match_results():
    graph = complete_graph(12)
    scenario = AdaptiveCrash(budget=3, k=2)
    options = {"max_steps": 400, "on_budget_exhausted": "partial", "view": "edge_clocks"}
    registry = MetricsRegistry()
    with collecting_metrics(registry):
        batched = run_batch(graph, 0, "pp-a", trials=10, seed=53, scenario=scenario, **options)
    counters = registry.snapshot()["counters"]
    for reason in ("completed", "absorbed", "budget"):
        count = int(np.count_nonzero(batched.termination == reason))
        assert counters.get(f"engine.termination.{reason}", 0) == count
