"""Experiment E10 — the three views of the asynchronous model are equivalent.

Section 2 gives three descriptions of ``pp-a`` — one rate-1 Poisson clock per
vertex, one rate-``1/deg(v)`` clock per ordered adjacent pair, and a single
rate-``n`` global clock — and notes their equivalence follows from the
superposition/memorylessness properties of Poisson processes.  The engines
in :mod:`repro.core.async_engine` implement all three, so this experiment
verifies the equivalence empirically (it doubles as an ablation of the
engine-view design choice, registered as E10 in
:mod:`repro.experiments.registry`): for each graph it draws a
spreading-time sample per view and reports the pairwise two-sample
Kolmogorov–Smirnov distances and p-values.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from scipy import stats as scipy_stats

from repro.analysis.montecarlo import run_trials
from repro.core.async_engine import ASYNC_VIEWS
from repro.experiments.presets import get_preset
from repro.experiments.records import ExperimentResult
from repro.graphs.base import Graph
from repro.graphs.generators import complete_graph, hypercube_graph, star_graph
from repro.randomness.rng import SeedLike, derive_generator

__all__ = ["run"]


def _default_graphs(size: int) -> list[tuple[Graph, int]]:
    dimension = max(3, round(math.log2(max(size, 8))))
    return [
        (star_graph(size), 1),
        (hypercube_graph(dimension), 0),
        (complete_graph(max(16, size // 2)), 0),
    ]


def run(
    preset: str = "quick",
    *,
    seed: SeedLike = 20160803,
    size: Optional[int] = None,
    graphs_with_sources: Optional[Sequence[tuple[Graph, int]]] = None,
) -> ExperimentResult:
    """Run experiment E10 and return its result table."""
    config = get_preset(preset)
    base_size = int(size) if size is not None else config.sizes[-1]
    suite = (
        list(graphs_with_sources)
        if graphs_with_sources is not None
        else _default_graphs(base_size)
    )
    trials = max(config.trials, 40)

    rows: list[dict[str, object]] = []
    min_p_value = 1.0
    max_ks = 0.0

    for graph, source in suite:
        samples = {}
        for view in ASYNC_VIEWS:
            samples[view] = run_trials(
                graph,
                source,
                "pp-a",
                trials=trials,
                seed=derive_generator(seed, graph.name, view),
                engine_options={"view": view},
            ).as_array()
        for view_a, view_b in itertools.combinations(ASYNC_VIEWS, 2):
            test = scipy_stats.ks_2samp(samples[view_a], samples[view_b])
            min_p_value = min(min_p_value, float(test.pvalue))
            max_ks = max(max_ks, float(test.statistic))
            rows.append(
                {
                    "graph": graph.name,
                    "n": graph.num_vertices,
                    "view A": view_a,
                    "view B": view_b,
                    "mean A": float(samples[view_a].mean()),
                    "mean B": float(samples[view_b].mean()),
                    "KS distance": float(test.statistic),
                    "p-value": float(test.pvalue),
                }
            )

    num_tests = len(rows)
    conclusions = {
        "max_ks_distance": max_ks,
        "min_p_value": min_p_value,
        "num_pairwise_tests": num_tests,
        # With a Bonferroni-style allowance, no test should reject at 1%.
        "views_statistically_indistinguishable": min_p_value > 0.01 / max(num_tests, 1),
    }
    notes = [
        f"preset={config.name}, trials={trials} per (graph, view)",
        "Views: per-vertex Poisson clocks, per-ordered-pair clocks, single global rate-n clock",
        "Equivalence follows from superposition + memorylessness of Poisson processes (Section 2)",
    ]
    return ExperimentResult(
        experiment_id="E10",
        title="Equivalence of the three asynchronous model views",
        claim="Node-clock, edge-clock and global-clock simulations of pp-a produce the same spreading-time law",
        columns=["graph", "n", "view A", "view B", "mean A", "mean B", "KS distance", "p-value"],
        rows=rows,
        conclusions=conclusions,
        notes=notes,
    )
