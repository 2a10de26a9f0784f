"""Fixed-seed outcomes of the absorbing scenarios, pinned to a reference tree.

A trial under permanent crashes can reach a state in which no future
contact informs anyone.  Stopping such a trial early must not change any
outcome field: the informing times, the completion flag and time, and the
adaptive adversary's budget spend are exactly those of a run that keeps
drawing until its budget is gone.  This module records those fields for
every absorbing case of the equivalence registry plus a few extra settings
(permanent random churn, a source stranded at trial start) so the suite can
compare the engines against a fixture written by an older tree.

Regenerate the fixture from a checkout of the reference tree::

    PYTHONPATH=src python tests/helpers/absorbing_golden.py OUT.json

The recorder uses only APIs every tree since the adaptive adversaries has,
so the same file runs unchanged against the reference checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.montecarlo import run_trials
from repro.analysis.parallel import run_trials_parallel
from repro.core.protocols import spread
from repro.graphs import complete_graph, star_graph
from repro.graphs.random_graphs import random_regular_graph
from repro.randomness.rng import spawn_generators
from repro.scenarios import NodeChurn, TargetedChurn

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers.equivalence import KERNEL_CASES, PARALLEL_CASES, KernelCase  # noqa: E402

__all__ = [
    "FIXTURE",
    "GOLDEN_CASES",
    "GOLDEN_PARALLEL_CASES",
    "record_case",
    "record_parallel_case",
]

#: The committed fixture, written by the reference tree.
FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "absorbing_golden.json"

#: Trials per ``run_trials`` sample recorded for each case.
SAMPLE_TRIALS = 6


def _is_absorbing(case: KernelCase) -> bool:
    return "targeted" in case.id or "adaptive-crash" in case.id


def _rr24() -> object:
    return random_regular_graph(24, 3, seed=2)


_EXTRA_CASES = [
    KernelCase(
        id="sync-permanent-churn", protocol="pp", graph_builder=_rr24,
        sources=(0, 1, 2), seed=71, scenario=NodeChurn(0.1, recovery_rate=0.0),
        engine_options=(("max_rounds", 80), ("on_budget_exhausted", "partial")),
    ),
    KernelCase(
        id="global-permanent-churn", protocol="pp-a", graph_builder=_rr24,
        sources=(0, 1, 2), seed=73, scenario=NodeChurn(0.1, recovery_rate=0.0),
        engine_options=(("max_steps", 3000), ("on_budget_exhausted", "partial")),
    ),
    KernelCase(
        id="node_clocks-permanent-churn", protocol="push-a", graph_builder=_rr24,
        sources=(0, 1), seed=75, scenario=NodeChurn(0.1, recovery_rate=0.0),
        engine_options=(
            ("max_steps", 3000), ("on_budget_exhausted", "partial"),
            ("view", "node_clocks"),
        ),
    ),
    KernelCase(
        id="edge_clocks-permanent-churn", protocol="pull-a", graph_builder=_rr24,
        sources=(0, 1), seed=77, scenario=NodeChurn(0.1, recovery_rate=0.0),
        engine_options=(
            ("max_steps", 3000), ("on_budget_exhausted", "partial"),
            ("view", "edge_clocks"),
        ),
    ),
    # The degree ranking crashes the star's centre: every leaf source is
    # cut off before the first contact.
    KernelCase(
        id="sync-stranded-source", protocol="pp", graph_builder=lambda: star_graph(20),
        sources=(1, 2), seed=79, scenario=TargetedChurn(0.05),
        engine_options=(("max_rounds", 50), ("on_budget_exhausted", "partial")),
    ),
    KernelCase(
        id="global-stranded-source", protocol="pull-a",
        graph_builder=lambda: star_graph(20), sources=(1, 2), seed=81,
        scenario=TargetedChurn(0.05),
        engine_options=(("max_steps", 2000), ("on_budget_exhausted", "partial")),
    ),
    KernelCase(
        id="edge_clocks-stranded-source", protocol="pp-a",
        graph_builder=lambda: complete_graph(10), sources=(0, 3), seed=83,
        scenario=TargetedChurn(0.1),
        engine_options=(
            ("max_steps", 2000), ("on_budget_exhausted", "partial"),
            ("view", "edge_clocks"),
        ),
    ),
]

#: Every absorbing registry case plus the extra settings above.
GOLDEN_CASES: list[KernelCase] = [c for c in KERNEL_CASES if _is_absorbing(c)] + _EXTRA_CASES

#: Absorbing parallel-transport cases (the parallel sample is recorded too).
GOLDEN_PARALLEL_CASES = [c for c in PARALLEL_CASES if "adaptive-crash" in c.id]


def record_case(case: KernelCase) -> dict:
    """Serial per-trial outcomes plus one serial ``run_trials`` sample."""
    graph = case.graph_builder()
    options = case.options()
    trials = []
    for source, rng in zip(case.sources, spawn_generators(len(case.sources), case.seed)):
        result = spread(
            graph, source, protocol=case.protocol, seed=rng,
            scenario=case.scenario, **options,
        )
        trials.append(
            {
                "informed_time": list(result.informed_time),
                "completed": bool(result.completed),
                "completion_time": float(result.spreading_time),
                "adversary_budget_spent": result.adversary_budget_spent,
            }
        )
    sample = run_trials(
        graph, case.sources[0], case.protocol, trials=SAMPLE_TRIALS, seed=case.seed,
        scenario=case.scenario, engine_options=options, batch=False,
    )
    return {"trials": trials, "sample_times": list(sample.times)}


def record_parallel_case(case) -> list[float]:
    """The ``run_trials_parallel`` sample of one parallel-transport case."""
    sample = run_trials_parallel(
        case.graph_builder(), case.source, case.protocol, trials=case.trials,
        seed=case.seed, num_workers=case.num_workers, batch=case.batch,
        scenario=case.scenario, engine_options=case.options(),
    )
    return list(sample.times)


def main(path: str) -> None:
    payload = {
        "cases": {case.id: record_case(case) for case in GOLDEN_CASES},
        "parallel": {case.id: record_parallel_case(case) for case in GOLDEN_PARALLEL_CASES},
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
