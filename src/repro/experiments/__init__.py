"""Experiment harness: one experiment per claim of the paper.

Import :func:`repro.experiments.run_experiment` (or use the
``repro-experiments`` CLI / ``python -m repro``) to regenerate any of the
result tables of the per-experiment index in
:mod:`repro.experiments.registry`.
"""

from repro.experiments.presets import PRESETS, Preset, get_preset
from repro.experiments.records import ExperimentResult, format_table, format_value

__all__ = [
    "PRESETS",
    "Preset",
    "get_preset",
    "ExperimentResult",
    "format_table",
    "format_value",
    "available_experiments",
    "get_experiment",
    "run_experiment",
    "run_all_experiments",
    "EXPERIMENTS",
    "ExperimentSpec",
]


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    # The registry imports every experiment module; importing it lazily keeps
    # `import repro` fast and avoids circular imports between the experiment
    # modules (which import from repro.experiments.presets/records) and this
    # package __init__.
    if name in {
        "available_experiments",
        "get_experiment",
        "run_experiment",
        "run_all_experiments",
        "EXPERIMENTS",
        "ExperimentSpec",
    }:
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module 'repro.experiments' has no attribute {name!r}")
