"""Experiment registry: the executable per-claim index of the experiments.

Every experiment module registers a runner here under its id (``"E1"`` ...
``"E13"``).  The CLI, the benchmarks, and the markdown summary
(:mod:`repro.experiments.summary`) all go through this registry so the set
of experiments has a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ExperimentError
from repro.experiments import (
    adaptive,
    block_counts,
    classical,
    corollary3,
    coupling_checks,
    gap_graphs,
    regular_push_identity,
    scenarios,
    social,
    star,
    theorem1,
    theorem2,
    view_equivalence,
)
from repro.experiments.records import ExperimentResult
from repro.randomness.rng import SeedLike

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "run_all_experiments",
]

#: Runner signature shared by all experiments.
Runner = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry for one experiment.

    Attributes:
        experiment_id: the id used by the CLI and the reports (e.g. "E1").
        title: one-line title.
        claim: the paper claim the experiment reproduces.
        runner: the ``run(preset=..., seed=...)`` callable.
    """

    experiment_id: str
    title: str
    claim: str
    runner: Runner


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "E1": ExperimentSpec(
        "E1",
        "Theorem 1: async push-pull time vs sync time + log n",
        "T_{1/n}(pp-a) = O(T_{1/n}(pp) + log n) on every connected graph",
        theorem1.run,
    ),
    "E2": ExperimentSpec(
        "E2",
        "Theorem 2: sync/async expected-time ratio vs sqrt(n)",
        "E[T(pp-a)] = Omega(E[T(pp)] / sqrt(n)) on every connected graph",
        theorem2.run,
    ),
    "E3": ExperimentSpec(
        "E3",
        "Corollary 3: push vs push-pull on regular graphs",
        "On regular graphs, T_{p,1/n} = Theta(T_{pp,1/n})",
        corollary3.run,
    ),
    "E4": ExperimentSpec(
        "E4",
        "Star graph anomaly (Section 1)",
        "Star: sync pp <= 2 rounds, async pp = Theta(log n), sync push = Theta(n log n)",
        star.run,
    ),
    "E5": ExperimentSpec(
        "E5",
        "Gap constructions in both directions",
        "Async can win by a polynomial factor (below sqrt(n)); sync can win by Theta(log n)",
        gap_graphs.run,
    ),
    "E6": ExperimentSpec(
        "E6",
        "Classical graphs: constant-factor agreement",
        "Hypercube, G(n,p), random regular: sync and async push-pull agree within constants",
        classical.run,
    ),
    "E7": ExperimentSpec(
        "E7",
        "Social networks: async advantage for partial coverage",
        "Chung-Lu / preferential attachment: pp-a informs a large fraction faster than pp",
        social.run,
    ),
    "E8": ExperimentSpec(
        "E8",
        "Upper-bound machinery (Lemmas 6, 8, 9, 10; push coupling)",
        "The Section 4 coupling lemmas hold on concrete runs",
        coupling_checks.run,
    ),
    "E9": ExperimentSpec(
        "E9",
        "Lower-bound machinery (block decomposition; Lemmas 13, 14)",
        "Async steps map to O(steps/sqrt(n) + sqrt(n)) sync rounds with the subset invariant intact",
        block_counts.run,
    ),
    "E10": ExperimentSpec(
        "E10",
        "Equivalence of the three asynchronous views",
        "Node-clock, edge-clock and global-clock pp-a have the same spreading-time law",
        view_equivalence.run,
    ),
    "E11": ExperimentSpec(
        "E11",
        "Regular graphs: async push ~ 2 x async push-pull",
        "On regular graphs T(push-a) is distributed as 2*T(pp-a)",
        regular_push_identity.run,
    ),
    "E12": ExperimentSpec(
        "E12",
        "Adversity scenarios: loss/churn spreading-time blowup",
        "Perturbed spreading times dominate the clean ones; blowup grows with loss rate",
        scenarios.run,
    ),
    "E13": ExperimentSpec(
        "E13",
        "Adaptive adversaries: blowup vs oblivious baselines at equal budget",
        "An informed-set-observing adversary amplifies spreading time beyond any "
        "equal-budget oblivious adversary, increasingly with budget",
        adaptive.run,
    ),
}


def available_experiments() -> list[str]:
    """Experiment ids in numeric order."""
    return sorted(EXPERIMENTS, key=lambda key: int(key.lstrip("E")))


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment; accepts ``"E1"`` or ``"1"``."""
    normalized = experiment_id.upper()
    if not normalized.startswith("E"):
        normalized = f"E{normalized}"
    try:
        return EXPERIMENTS[normalized]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {available_experiments()}"
        ) from None


def run_experiment(
    experiment_id: str,
    *,
    preset: str = "quick",
    seed: Optional[SeedLike] = None,
    **overrides,
) -> ExperimentResult:
    """Run one experiment by id.

    ``seed=None`` uses the experiment's own default seed (each experiment has
    a fixed default so repeated runs are reproducible out of the box).
    """
    spec = get_experiment(experiment_id)
    kwargs = dict(overrides)
    if seed is not None:
        kwargs["seed"] = seed
    return spec.runner(preset, **kwargs)


def run_all_experiments(
    *,
    preset: str = "quick",
    seed: Optional[SeedLike] = None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment and return results keyed by id."""
    return {
        experiment_id: run_experiment(experiment_id, preset=preset, seed=seed)
        for experiment_id in available_experiments()
    }
