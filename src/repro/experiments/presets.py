"""Experiment presets: how big and how many.

Every experiment accepts a ``preset`` argument controlling the size sweep
and the number of Monte Carlo trials:

* ``"smoke"`` — a few seconds; used by the unit/integration tests.
* ``"quick"`` — tens of seconds per experiment; the default for the
  pytest-benchmark harness so the full suite completes on a laptop.
* ``"full"`` — the configuration for publication-grade numbers of every
  experiment in :mod:`repro.experiments.registry`; minutes per experiment.

Experiments read the fields they need and ignore the rest, so one preset
type serves all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError

__all__ = ["Preset", "get_preset", "PRESETS"]


@dataclass(frozen=True)
class Preset:
    """Knobs shared by all experiments.

    Attributes:
        name: preset name.
        trials: Monte Carlo trials per measurement cell.
        sizes: default size sweep for family experiments.
        large_sizes: sweep for experiments that need larger graphs to show
            asymptotics (gap graphs, Theorem 2 ratios).
        coupling_trials: trials for coupled-run experiments (each coupled
            trial is more expensive than a plain simulation).
    """

    name: str
    trials: int
    sizes: tuple[int, ...]
    large_sizes: tuple[int, ...]
    coupling_trials: int


PRESETS: dict[str, Preset] = {
    "smoke": Preset(
        name="smoke",
        trials=20,
        sizes=(32, 64),
        large_sizes=(64, 128),
        coupling_trials=10,
    ),
    "quick": Preset(
        name="quick",
        trials=60,
        sizes=(32, 64, 128),
        large_sizes=(64, 128, 256),
        coupling_trials=25,
    ),
    "full": Preset(
        name="full",
        trials=300,
        sizes=(64, 128, 256, 512),
        large_sizes=(128, 256, 512, 1024),
        coupling_trials=100,
    ),
}


def get_preset(name: str) -> Preset:
    """Look up a preset by name; raises with the list of valid names."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
