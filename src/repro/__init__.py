"""repro — reproduction of "How Asynchrony Affects Rumor Spreading Time" (PODC 2016).

The library provides:

* :mod:`repro.graphs` — graph types, generators (star, hypercube, random
  regular, Chung–Lu, preferential attachment, gap constructions, ...) and
  structural parameters (conductance, vertex expansion, diameter);
* :mod:`repro.core` — simulation engines for synchronous push / pull /
  push–pull, the asynchronous Poisson-clock variants, and the auxiliary
  analysis processes ``ppx`` / ``ppy``;
* :mod:`repro.coupling` — executable versions of the paper's coupling
  constructions (push coupling, exponential pull coupling, block
  decomposition of the lower-bound proof);
* :mod:`repro.analysis` — Monte Carlo estimation of spreading-time
  distributions, quantiles (``T_q``, in particular the high-probability time
  ``T_{1/n}``), confidence intervals, scaling fits and theoretical bounds;
* :mod:`repro.scenarios` — composable adversity models (message loss, node
  churn, dynamic graphs, adversarial sources, heterogeneous clocks) every
  engine accepts through ``scenario=``;
* :mod:`repro.experiments` — the experiment harness reproducing each claim
  of the paper (the experiment index is :mod:`repro.experiments.registry`).

Quickstart::

    from repro import graphs, spread

    g = graphs.star_graph(256)
    sync_result = spread(g, source=1, protocol="pp", seed=1)
    async_result = spread(g, source=1, protocol="pp-a", seed=1)
    print(sync_result.spreading_time, async_result.spreading_time)
"""

from repro._version import __version__
from repro.core.batch_engine import run_batch
from repro.core.protocols import available_protocols, spread
from repro.core.result import BatchTimes, ContactEvent, SpreadingResult
from repro.errors import (
    AnalysisError,
    CouplingError,
    ExperimentError,
    GraphError,
    GraphGenerationError,
    ProtocolError,
    ReproError,
    ScenarioError,
    SimulationError,
)
from repro.graphs.base import Graph
from repro.scenarios.base import Scenario

__all__ = [
    "__version__",
    "available_protocols",
    "spread",
    "run_batch",
    "BatchTimes",
    "ContactEvent",
    "SpreadingResult",
    "Graph",
    "Scenario",
    "AnalysisError",
    "CouplingError",
    "ExperimentError",
    "GraphError",
    "GraphGenerationError",
    "ProtocolError",
    "ReproError",
    "ScenarioError",
    "SimulationError",
]
