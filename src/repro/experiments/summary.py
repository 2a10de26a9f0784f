"""Markdown summary generation for experiment results.

The report records, for every experiment of the index in
:mod:`repro.experiments.registry`, the paper's claim next to the measured
outcome.  :func:`results_to_markdown` produces that report automatically from a collection of
:class:`~repro.experiments.records.ExperimentResult` objects (as returned by
:func:`repro.experiments.run_all_experiments` or reloaded from the JSON
artefacts), so the document can be regenerated from a single command::

    python -m repro run-all --preset quick --output results/quick
    python - <<'PY'
    from pathlib import Path
    from repro.reporting import load_result_json
    from repro.experiments.summary import results_to_markdown
    results = [load_result_json(p) for p in sorted(Path("results/quick").glob("e*.json"))]
    print(results_to_markdown(results))
    PY
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ExperimentError
from repro.experiments.records import ExperimentResult, format_value

__all__ = ["result_to_markdown", "results_to_markdown"]


def _markdown_table(columns: list[str], rows: list[Mapping[str, object]], precision: int = 3) -> str:
    header = "| " + " | ".join(columns) + " |"
    separator = "|" + "|".join(["---"] * len(columns)) + "|"
    body = [
        "| " + " | ".join(format_value(row.get(column, ""), precision=precision) for column in columns) + " |"
        for row in rows
    ]
    return "\n".join([header, separator, *body])


def result_to_markdown(result: ExperimentResult, *, include_rows: bool = True) -> str:
    """Render one experiment result as a markdown section."""
    lines = [
        f"### {result.experiment_id} — {result.title}",
        "",
        f"**Paper claim.** {result.claim}",
        "",
    ]
    if result.conclusions:
        lines.append("**Measured outcome.**")
        lines.append("")
        for key, value in result.conclusions.items():
            lines.append(f"- `{key}` = {format_value(value)}")
        lines.append("")
    if include_rows and result.rows:
        lines.append(_markdown_table(result.columns, result.rows))
        lines.append("")
    for note in result.notes:
        lines.append(f"*{note}*")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def results_to_markdown(
    results: Iterable[ExperimentResult],
    *,
    title: str = "Experiment results",
    include_rows: bool = True,
) -> str:
    """Render a collection of results as one markdown document."""
    ordered = sorted(results, key=_experiment_order)
    if not ordered:
        raise ExperimentError("no experiment results to render")
    sections = [f"# {title}", ""]
    for result in ordered:
        sections.append(result_to_markdown(result, include_rows=include_rows))
    return "\n".join(sections)


def _experiment_order(result: ExperimentResult) -> tuple[int, str]:
    identifier = result.experiment_id.upper().lstrip("E")
    try:
        return int(identifier), result.experiment_id
    except ValueError:
        return 10_000, result.experiment_id
