"""Shared fixtures for the test suite.

Also puts ``tests/`` itself on ``sys.path`` so suites anywhere in the tree
can import the shared serial-vs-batch equivalence harness as
``from helpers.equivalence import ...`` regardless of pytest's rootdir
insertion rules.

Without numba the jit backend's legs run its loops uncompiled
(``REPRO_JIT_PURE_PYTHON=1``) instead of skipping, so numba-free machines
verify the jit kernels' logic against the same harness; an explicit
``REPRO_JIT_PURE_PYTHON`` setting in the environment wins.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

if importlib.util.find_spec("numba") is None:
    os.environ.setdefault("REPRO_JIT_PURE_PYTHON", "1")

from repro.graphs import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)


@pytest.fixture
def small_star():
    """A 16-vertex star (center 0, leaves 1..15)."""
    return star_graph(16)


@pytest.fixture
def small_cycle():
    """A 12-vertex cycle (2-regular)."""
    return cycle_graph(12)


@pytest.fixture
def small_complete():
    """The complete graph on 10 vertices."""
    return complete_graph(10)


@pytest.fixture
def small_hypercube():
    """The 4-dimensional hypercube (16 vertices, 4-regular)."""
    return hypercube_graph(4)


@pytest.fixture
def small_path():
    """A 10-vertex path."""
    return path_graph(10)


@pytest.fixture(params=["star", "cycle", "complete", "hypercube", "path"])
def small_graph(request, small_star, small_cycle, small_complete, small_hypercube, small_path):
    """Parametrised fixture cycling through the small test graphs."""
    return {
        "star": small_star,
        "cycle": small_cycle,
        "complete": small_complete,
        "hypercube": small_hypercube,
        "path": small_path,
    }[request.param]
