"""Output checks for every cell, independent of the order of random draws.

A correct kernel that consumes randomness differently still passes: the
checks compare distributions (means and completion fractions within a
stated number of standard errors of references computed with the serial
engines at another seed), plus a few exact facts of the process.  The
references live in ``perfbench/references.json`` and are regenerated by
``perfbench/make_references.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Union

import numpy as np

from perfbench.workloads import Cell

#: A cell passes when its statistic lies within this many standard errors
#: of the reference (two-sided; with ~10^5 checks over a full set of runs a
#: normal deviate this large is not expected once by chance).
SE_TOLERANCE = 6.0

REFERENCES = Path(__file__).with_name("references.json")


def summarize(per_instance: list[np.ndarray]) -> dict:
    """The draw-order-free summary a reference stores for one cell.

    ``per_instance`` holds the times observed on each graph instance.  A
    benchmark cell runs on one instance, so its mean carries the spread of
    instance means on top of the trial-to-trial spread; the ``*_between_sd``
    fields record that spread (the raw sd of the per-instance statistics,
    which overstates it slightly).
    """
    times = np.concatenate(per_instance)
    finite = times[np.isfinite(times)]
    fractions = [float(np.isfinite(x).mean()) for x in per_instance]
    means = [float(x[np.isfinite(x)].mean()) for x in per_instance if np.isfinite(x).any()]
    return {
        "instances": len(per_instance),
        "trials": int(times.size),
        "completed": int(finite.size),
        "mean": float(finite.mean()) if finite.size else None,
        "sd": float(finite.std(ddof=1)) if finite.size > 1 else 0.0,
        "completed_between_sd": float(np.std(fractions, ddof=1)) if len(fractions) > 1 else 0.0,
        "mean_between_sd": float(np.std(means, ddof=1)) if len(means) > 1 else 0.0,
    }


def load_references(path: Union[str, Path] = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def check_cell(cell: Cell, times: np.ndarray, reference: Optional[dict]) -> list[str]:
    """Every problem found in one cell's spreading times (empty when it passes)."""
    problems = []
    if times.shape != (cell.trials,):
        problems.append(f"expected {cell.trials} times, got shape {times.shape}")
        return problems
    if np.isnan(times).any():
        problems.append("NaN spreading time")
        return problems
    finite = times[np.isfinite(times)]
    if cell.scenario is None and finite.size != times.size:
        problems.append(f"clean cell completed {finite.size}/{times.size} trials")
    if cell.graph == "star" and cell.protocol == "pp" and cell.scenario is None:
        # Sync push-pull on a star: the centre reaches every leaf in round 1;
        # from a leaf the centre is informed in round 1 and the rest in round 2.
        expected = 1.0 if cell.source == 0 else 2.0
        if not np.all(times == expected):
            problems.append(f"sync pp on star must take exactly {expected:g} rounds")
    if reference is None:
        problems.append("no reference for this cell")
        return problems

    trials, ref_trials = times.size, reference["trials"]
    instances = reference["instances"]
    # Completion fraction: binomial standard error, with the reference
    # fraction smoothed by one success and one failure so a reference of
    # exactly 0 or 1 still tolerates a rare opposite outcome, plus the
    # spread between graph instances.
    smoothed = (reference["completed"] + 1) / (ref_trials + 2)
    between = reference["completed_between_sd"] ** 2
    se = math.sqrt(smoothed * (1 - smoothed) * (1 / trials + 1 / ref_trials)
                   + between * (1 + 1 / instances))
    fraction = finite.size / trials
    ref_fraction = reference["completed"] / ref_trials
    if abs(fraction - ref_fraction) > SE_TOLERANCE * se:
        problems.append(
            f"completed fraction {fraction:.3f} vs reference {ref_fraction:.3f} "
            f"(> {SE_TOLERANCE:g} SE = {SE_TOLERANCE * se:.3f})"
        )
    completed = reference["completed"]
    if finite.size and completed:
        # The 1/completed floor keeps a reference that never varied (integer
        # rounds) from demanding exact equality.
        within = reference["sd"] ** 2 + 1 / completed
        between = reference["mean_between_sd"] ** 2
        se = math.sqrt(within * (1 / finite.size + 1 / completed)
                       + between * (1 + 1 / instances))
        mean = float(finite.mean())
        if abs(mean - reference["mean"]) > SE_TOLERANCE * se:
            problems.append(
                f"mean {mean:.4f} vs reference {reference['mean']:.4f} "
                f"(> {SE_TOLERANCE:g} SE = {SE_TOLERANCE * se:.4f})"
            )
    return problems
