"""Shared configuration for the benchmark harness.

Every benchmark runs its experiment exactly once per pytest-benchmark round
(``rounds=1, iterations=1``): the experiments are themselves Monte Carlo
aggregates, so repeating them inside the timer would only multiply wall-clock
time without improving the timing signal.  The benchmark preset can be chosen
with ``--bench-preset`` (default ``smoke`` so the whole suite completes in a
few minutes; use ``quick`` or ``full`` to regenerate the EXPERIMENTS.md
numbers).

Most files here (``bench_theorem1.py``, ``bench_star.py``, ...) time whole
paper-reproduction experiments end to end.  ``bench_batch.py`` is different:
it times the Monte Carlo *trial engine* itself — the batched 2-D kernels
against today's serial path and against a frozen copy of the original
(pre-batching) serial loop — so engine-level throughput regressions show up
independently of experiment composition.  It also carries the hard
``>= 5x over the seed baseline`` assertion; the other files are
record-only.

Every gate benchmark additionally records its measured numbers through the
``bench_record`` fixture; at session end the records are written to
``BENCH_batch.json`` (per-benchmark wall time, the pinned baseline's wall
time, and the speedup against it), which CI uploads as an artifact next to
the pytest-benchmark JSON — the machine-readable perf trajectory across
PRs.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import pytest

#: Gate-benchmark records destined for BENCH_batch.json, keyed by name.
_BENCH_JSON_RECORDS: dict[str, dict] = {}

#: Written into the pytest invocation directory (the repo root in CI, where
#: the artifact glob picks it up).
_BENCH_JSON_NAME = "BENCH_batch.json"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-preset",
        action="store",
        default="smoke",
        choices=["smoke", "quick", "full"],
        help="experiment preset used by the benchmark harness (default: smoke)",
    )


@pytest.fixture(scope="session")
def bench_preset(request) -> str:
    """The preset name every experiment benchmark runs with."""
    return request.config.getoption("--bench-preset")


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Pre-warm the kernel backends once per benchmark session.

    Numba compiles lazily per signature; without this, the first timed
    region of the session would absorb seconds of jit compilation and
    poison its benchmark.  A no-op (milliseconds) on numpy-only installs.
    """
    from repro.core.kernels import warmup_kernels

    warmup_kernels()


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture
def bench_record(request):
    """Record one gate benchmark's measured numbers for ``BENCH_batch.json``.

    Usage: ``bench_record("shared_memory_sweep", seconds=..., baseline_seconds=...,
    speedup=..., gate=3.0, **extra)``.  ``speedup`` is measured against the
    benchmark's *pinned* baseline (frozen seed loop, fresh-executor sweep,
    serial engine, ...), so the trajectory stays comparable across PRs;
    paired gates add their pair count and the bootstrap CI of the median
    paired ratio (``pairs``, ``ci_lower``, ``ci_upper``, ``ci_within_margin``).  ``seconds``/``speedup`` may be ``None`` for a gate that
    records itself as skipped (e.g. the jit gate on a numba-free machine) —
    a skip that leaves a trace in BENCH_batch.json instead of vanishing.
    """
    preset = request.config.getoption("--bench-preset")

    def record(name: str, *, seconds, speedup, gate: float, **extra):
        _BENCH_JSON_RECORDS[name] = {
            "preset": preset,
            "seconds": None if seconds is None else round(float(seconds), 6),
            "speedup": None if speedup is None else round(float(speedup), 3),
            "gate": float(gate),
            **extra,
        }

    return record


def pytest_sessionfinish(session, exitstatus):
    """Write the collected gate records to ``BENCH_batch.json``."""
    if not _BENCH_JSON_RECORDS:
        return
    payload = {
        "preset": session.config.getoption("--bench-preset"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "records": dict(sorted(_BENCH_JSON_RECORDS.items())),
    }
    Path(_BENCH_JSON_NAME).write_text(json.dumps(payload, indent=2) + "\n")
