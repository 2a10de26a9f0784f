"""The benchmark's three workloads: cells generated from the seed, set-up, one pass.

Every input a workload feeds the program comes from the ``--seed`` argument
through this module's own code (never through ``experiments/registry.py``),
so later edits to the experiment runners cannot change what is measured.
The layers are driven directly: graphs through ``repro.graphs``, trials
through ``repro.analysis.montecarlo.run_trials`` or
``repro.analysis.parallel.run_trials_parallel``.

Why each workload exists (the one-line form sits beside it in
``BENCHMARK.json``):

``paper-async``
    The paper-experiment path: one process, ``run_trials(..., batch=True)``
    (forced batch, bit-identical to the serial engines), on ``star``,
    ``random_regular_4`` and ``async_gap`` at n = 1024 crossed with
    ``pp-a``, ``pull-a``, ``pp`` and ``pull``.  The batched async tick loop
    in ``core.kernels`` does most of the work, and only 3-13% of its
    contacts inform anyone.  ``push-a`` on the star is left out: its
    spreading time is Theta(n log n).  The star source is the centre (a
    leaf source makes pull Theta(n) there).
``scenario-sweep``
    A 2-worker ``run_trials_parallel`` sweep inside ``shm.sweep_scope()`` at
    n = 256: five scenarios, sync ``pp`` and async ``pp-a`` on the global
    view plus ``node_clocks``/``edge_clocks`` under ``batch="pooled"``.  It
    loads pool dispatch and merge, shm segment reuse, scenario masks, the
    pooled clock-view kernel, and adversary cells that burn their whole
    step budget.  Its 32-trial ``pp-a`` global-view chunks sit below
    ``ASYNC_AUTO_MIN_TRIALS`` and run on the serial ``core.async_engine``.
    The star source is a leaf.
``large-n-sync``
    One process: build ``random_regular_3`` at n = 10**6, call
    ``flat_adjacency``, run sync ``pp``, ``push`` and ``pull``.  Graph
    build, CSR preparation and memory dominate; the sync round kernel
    streams ``(B, n)`` arrays far larger than cache.  The async tick loop
    and the pool do not run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

WORKLOADS = ("paper-async", "scenario-sweep", "large-n-sync")

SCENARIOS = (
    None,
    "loss:p=0.3",
    "churn:crash_rate=0.05",
    "targeted-churn:fraction=0.05",
    "adaptive-crash:budget=4,k=1",
)

#: Sizes per profile.  ``full`` is what the benchmark measures; ``tiny`` is
#: the self-test's (``perfbench/selftest.py``).  Trials are scaled so one
#: child process stays a few seconds long and a run holds several of them.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "paper-async": {"n": 1024, "trials": 64},
        "scenario-sweep": {"n": 256, "trials": 64, "workers": 2},
        "large-n-sync": {"n": 1_000_000, "trials": {"pp": 2, "push": 1, "pull": 1}},
    },
    "tiny": {
        "paper-async": {"n": 64, "trials": 8},
        "scenario-sweep": {"n": 32, "trials": 8, "workers": 2},
        "large-n-sync": {"n": 2000, "trials": {"pp": 2, "push": 1, "pull": 1}},
    },
}


#: ``large-n-sync`` builds the same graph in every run.  The pairing-model
#: sampler behind ``random_regular_graph`` retries until the pairing is
#: simple, and at d = 3 the attempt count is geometric with mean about
#: e**2, so a seed-drawn graph would make set-up time vary several-fold
#: from run to run.  Trial seeds still come from ``--seed``.
LARGE_GRAPH_SEED = 0


def budgets(workload: str, n: int) -> dict[str, Any]:
    """The explicit step budgets of a workload (recorded with every result).

    ``scenario-sweep`` caps rounds and ticks and keeps partial results, so
    adversary cells burn a bounded budget (with the engines' defaults one
    sync ``pp`` cell on ``star(256)`` took 85 s under targeted churn).  The
    other two workloads use budgets no clean trial comes near, and a trial
    that hits one raises, which fails its cell.
    """
    if workload == "scenario-sweep":
        return {"max_rounds": 100, "max_steps": 50 * n, "on_budget_exhausted": "partial"}
    if workload == "paper-async":
        return {"max_rounds": 10_000, "max_steps": 2_000 * n, "on_budget_exhausted": "error"}
    return {"max_rounds": 1_000, "on_budget_exhausted": "error"}


@dataclass(frozen=True)
class GraphSpec:
    kind: str
    n: int
    seed: Optional[int]


@dataclass(frozen=True)
class Cell:
    """One (graph, protocol, scenario, view) setting and its trial seed."""

    graph: str
    protocol: str
    scenario: Optional[str]
    view: Optional[str]
    batch: Union[bool, str]
    source: int
    trials: int
    seed: int
    options: tuple[tuple[str, Any], ...]

    @property
    def key(self) -> str:
        """The seed-free identity used to look up the cell's reference."""
        source = "centre" if self.graph == "star" and self.source == 0 else (
            "leaf" if self.graph == "star" else str(self.source)
        )
        return "|".join(
            [self.graph, self.protocol, self.scenario or "clean", self.view or "-", source]
        )

    def engine_options(self) -> dict[str, Any]:
        return dict(self.options)


@dataclass(frozen=True)
class Plan:
    """Everything one child process runs: its graphs and its cells."""

    workload: str
    graphs: dict[str, GraphSpec]
    cells: tuple[Cell, ...]
    workers: int
    budgets: dict[str, Any]


def _engine_options(protocol: str, view: Optional[str], budget: dict[str, Any]) -> tuple:
    options = {"on_budget_exhausted": budget["on_budget_exhausted"]}
    if protocol.endswith("-a"):
        options["max_steps"] = budget["max_steps"]
        if view is not None:
            options["view"] = view
    else:
        options["max_rounds"] = budget["max_rounds"]
    return tuple(sorted(options.items()))


def make_plan(workload: str, seed: int, index: int = 0, size: str = "full") -> Plan:
    """The graphs and cells of child ``index`` of a run seeded with ``seed``.

    The same ``(seed, index)`` always gives the same plan; the children of
    one run draw different trial seeds (and ``random_regular_4`` graphs).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    params = SIZES[size][workload]
    n = params["n"]
    budget = budgets(workload, n)
    stream = np.random.SeedSequence([seed, index, WORKLOADS.index(workload)])
    draws = iter(int(x) for x in stream.generate_state(256, dtype=np.uint32))

    if workload == "large-n-sync":
        graphs = {"random_regular_3": GraphSpec("random_regular_3", n, LARGE_GRAPH_SEED)}
        cells = tuple(
            Cell("random_regular_3", protocol, None, None, "auto", 0, trials, next(draws),
                 _engine_options(protocol, None, budget))
            for protocol, trials in params["trials"].items()
        )
        return Plan(workload, graphs, cells, 1, budget)

    graphs = {
        "star": GraphSpec("star", n, None),
        "random_regular_4": GraphSpec("random_regular_4", n, next(draws)),
        "async_gap": GraphSpec("async_gap", n, None),
    }
    trials = params["trials"]
    cells = []
    if workload == "paper-async":
        for graph in graphs:
            for protocol in ("pp-a", "pull-a", "pp", "pull"):
                cells.append(Cell(graph, protocol, None, None, True, 0, trials, next(draws),
                                  _engine_options(protocol, None, budget)))
        return Plan(workload, graphs, tuple(cells), 1, budget)

    settings = [("pp", None, "auto"), ("pp-a", "global", "auto"),
                ("pp-a", "node_clocks", "pooled"), ("pp-a", "edge_clocks", "pooled")]
    for graph in graphs:
        source = n - 1 if graph == "star" else 0
        for scenario in SCENARIOS:
            for protocol, view, batch in settings:
                cells.append(Cell(graph, protocol, scenario, view, batch, source, trials,
                                  next(draws), _engine_options(protocol, view, budget)))
    if params["workers"] > (os.cpu_count() or 1):
        # One load-generating process and no more pool workers than CPUs.
        raise ValueError(f"{workload} needs {params['workers']} CPUs, "
                         f"this machine has {os.cpu_count()}")
    return Plan(workload, graphs, tuple(cells), params["workers"], budget)


def build_graph(spec: GraphSpec):
    """Build one graph through the ``repro.graphs`` builders (looked up per call)."""
    from repro import graphs

    if spec.kind == "star":
        return graphs.star_graph(spec.n)
    if spec.kind == "async_gap":
        return graphs.async_favoring_gap_graph(spec.n)
    if spec.kind == "random_regular_4":
        return graphs.random_regular_graph(spec.n, 4, seed=spec.seed)
    if spec.kind == "random_regular_3":
        return graphs.random_regular_graph(spec.n, 3, seed=spec.seed)
    raise ValueError(f"unknown graph kind {spec.kind!r}")


def pool_ready(_: int) -> int:
    """A trivial pool task: returns once a worker has started and warmed up."""
    return os.getpid()


def run_cell(plan: Plan, graph, cell: Cell) -> np.ndarray:
    """Run one cell through the layer its workload drives; returns the times."""
    from repro.analysis import montecarlo, parallel

    if plan.workers > 1:
        sample = parallel.run_trials_parallel(
            graph, cell.source, cell.protocol, trials=cell.trials, seed=cell.seed,
            num_workers=plan.workers, batch=cell.batch, scenario=cell.scenario,
            engine_options=cell.engine_options(),
        )
    else:
        sample = montecarlo.run_trials(
            graph, cell.source, cell.protocol, trials=cell.trials, seed=cell.seed,
            batch=cell.batch, scenario=cell.scenario, engine_options=cell.engine_options(),
        )
    return sample.as_array()
