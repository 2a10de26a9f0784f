"""Experiment result records and text rendering.

The paper has no numbered tables or figures, so each experiment in this
package produces a table-shaped :class:`ExperimentResult` that plays that
role: a list of rows (dictionaries), the columns to display, free-form notes
(e.g. which preset was used), and a ``conclusions`` mapping with the handful
of headline numbers/booleans the claim is judged by (these are what the
markdown summary of :mod:`repro.experiments.summary` reports and what the
benchmark assertions check).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ExperimentError

__all__ = ["ExperimentResult", "format_table", "format_value"]


def format_value(value: Any, *, precision: int = 3) -> str:
    """Render one cell: floats get fixed precision, the rest ``str()``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e6 or (0 < abs(value) < 1e-3):
            return f"{value:.{precision}g}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    columns: Sequence[str],
    rows: Sequence[Mapping[str, Any]],
    *,
    precision: int = 3,
) -> str:
    """Render rows as a fixed-width ASCII table (monospace friendly)."""
    if not columns:
        raise ExperimentError("a table needs at least one column")
    header = list(columns)
    rendered_rows = [
        [format_value(row.get(column, ""), precision=precision) for column in header]
        for row in rows
    ]
    widths = [len(column) for column in header]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(column.ljust(widths[index]) for index, column in enumerate(header))
    separator = "  ".join("-" * widths[index] for index in range(len(header)))
    body = [
        "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        for row in rendered_rows
    ]
    return "\n".join([line, separator, *body])


@dataclass
class ExperimentResult:
    """The outcome of one experiment run.

    Attributes:
        experiment_id: short id, e.g. ``"E1"``.
        title: one-line title.
        claim: the paper claim being reproduced (free text).
        columns: display order of the row keys.
        rows: one mapping per table row.
        conclusions: headline quantities / pass-fail flags keyed by name.
        notes: free-form notes (preset, trial counts, caveats).
    """

    experiment_id: str
    title: str
    claim: str
    columns: list[str]
    rows: list[dict[str, Any]]
    conclusions: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_table(self, *, precision: int = 3) -> str:
        """Render the rows as an ASCII table."""
        return format_table(self.columns, self.rows, precision=precision)

    def to_text(self) -> str:
        """Full text report: header, claim, table, conclusions, notes."""
        lines = [
            f"{self.experiment_id}: {self.title}",
            f"claim: {self.claim}",
            "",
            self.to_table(),
            "",
        ]
        if self.conclusions:
            lines.append("conclusions:")
            for key, value in self.conclusions.items():
                lines.append(f"  - {key}: {format_value(value)}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Serialise the result to JSON (used by the CLI ``--json`` flag)."""
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "columns": self.columns,
            "rows": self.rows,
            "conclusions": self.conclusions,
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, default=_json_default)

    def conclusion(self, key: str) -> Any:
        """Fetch one conclusion value; raises a clear error when missing."""
        try:
            return self.conclusions[key]
        except KeyError:
            raise ExperimentError(
                f"experiment {self.experiment_id} has no conclusion {key!r}; "
                f"available: {sorted(self.conclusions)}"
            ) from None


def _json_default(value: Any) -> Any:
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (set, tuple)):
        return list(value)
    return str(value)
