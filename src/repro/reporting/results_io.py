"""Persistence of experiment results: JSON, CSV, and JSONL event streams.

The benchmark harness and the CLI can write every
:class:`~repro.experiments.records.ExperimentResult` to disk so that the
reported numbers of every experiment in :mod:`repro.experiments.registry`
can be traced back to a concrete artefact.  JSON round-trips the whole
record; CSV exports just the table rows (one file per experiment) for
spreadsheet-style inspection.

The JSONL helpers (:func:`append_jsonl` / :func:`save_jsonl` /
:func:`load_jsonl`) back the telemetry layer's structured run manifests
(:mod:`repro.telemetry.manifest`): one JSON record per line, appended as
events happen so an interrupted run still leaves a readable prefix.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Union

from repro.errors import ExperimentError
from repro.experiments.records import ExperimentResult

__all__ = [
    "save_result_json",
    "load_result_json",
    "save_result_csv",
    "save_results",
    "append_jsonl",
    "save_jsonl",
    "load_jsonl",
]

PathLike = Union[str, Path]


def _jsonl_default(value):
    """Serialize numpy scalars/arrays that leak into telemetry records."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def append_jsonl(path: PathLike, record: dict) -> Path:
    """Append one JSON record as a single line; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf8") as handle:
        handle.write(json.dumps(record, default=_jsonl_default) + "\n")
    return target


def save_jsonl(path: PathLike, records: Iterable[dict]) -> Path:
    """Write an iterable of records as a fresh JSONL file; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf8") as handle:
        for record in records:
            handle.write(json.dumps(record, default=_jsonl_default) + "\n")
    return target


def load_jsonl(path: PathLike) -> list[dict]:
    """Load every record of a JSONL file (blank lines skipped)."""
    source = Path(path)
    if not source.exists():
        raise ExperimentError(f"no such JSONL file: {source}")
    records: list[dict] = []
    for number, line in enumerate(source.read_text(encoding="utf8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ExperimentError(f"{source}:{number}: invalid JSONL: {error}") from None
    return records


def save_result_json(result: ExperimentResult, path: PathLike) -> Path:
    """Write one experiment result as JSON; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(result.to_json(), encoding="utf8")
    return target


def load_result_json(path: PathLike) -> ExperimentResult:
    """Load an experiment result previously written by :func:`save_result_json`."""
    source = Path(path)
    if not source.exists():
        raise ExperimentError(f"no such result file: {source}")
    payload = json.loads(source.read_text(encoding="utf8"))
    required = {"experiment_id", "title", "claim", "columns", "rows"}
    missing = required - payload.keys()
    if missing:
        raise ExperimentError(f"result file {source} is missing fields: {sorted(missing)}")
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        claim=payload["claim"],
        columns=list(payload["columns"]),
        rows=[dict(row) for row in payload["rows"]],
        conclusions=dict(payload.get("conclusions", {})),
        notes=list(payload.get("notes", [])),
    )


def save_result_csv(result: ExperimentResult, path: PathLike) -> Path:
    """Write the result's table rows as CSV; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="", encoding="utf8") as handle:
        writer = csv.DictWriter(handle, fieldnames=result.columns, extrasaction="ignore")
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)
    return target


def save_results(
    results: Iterable[ExperimentResult],
    directory: PathLike,
    *,
    formats: tuple[str, ...] = ("json", "csv"),
) -> list[Path]:
    """Save a collection of results under ``directory``; returns written paths."""
    written: list[Path] = []
    base = Path(directory)
    for result in results:
        stem = result.experiment_id.lower()
        if "json" in formats:
            written.append(save_result_json(result, base / f"{stem}.json"))
        if "csv" in formats:
            written.append(save_result_csv(result, base / f"{stem}.csv"))
        if not formats:
            raise ExperimentError("at least one output format is required")
    return written
