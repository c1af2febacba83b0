"""Shared aggregation for ``repro report`` (text, JSON, and HTML surfaces).

Historically the report flattened analysis results with a *numeric-only*
walk, so non-numeric fields — achievability booleans rendered as labels,
role names, status strings — silently vanished from every table.  This
module is the fix and the single source of truth for all report formats:

* :func:`flatten_scalars` keeps **every** scalar leaf: numbers as floats,
  booleans as booleans, strings as strings, ``None`` as ``None``, and lists
  of scalars by index (``path.0``, ``path.1``, ...);
* :func:`aggregate_metric` summarises one flattened column per group —
  numerically (``mean/min/max/n``) when every observed value is a number,
  categorically (value counts) otherwise, so a boolean or label column
  reports ``True:3 False:1`` instead of disappearing.

The store holds more than cells: per-sweep telemetry records ride in the
same JSONL file (``kind="sweep_telemetry"``), and the invariant is that they
never masquerade as cells in any aggregate.  :func:`cell_records` is the one
place the filter lives for the report surfaces, and :func:`group_records`
additionally drops telemetry defensively so no direct caller can regress the
invariant by skipping the pre-filter.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .runner import TELEMETRY_KIND, SpecError

__all__ = [
    "DEFAULT_REPORT_METRICS",
    "aggregate_metric",
    "cell_records",
    "discover_metrics",
    "flatten_scalars",
    "format_aggregate",
    "group_records",
    "is_cell",
    "report_groups",
    "report_payload",
    "report_row",
]

#: Metrics aggregated when none are requested explicitly (shared by
#: ``repro report`` and the serve ``/report`` endpoint).  Mixes numeric
#: columns (mean/min/max) with boolean/label columns (value counts) — the
#: latter were silently dropped before the report grew a categorical
#: aggregation path.
DEFAULT_REPORT_METRICS = (
    "summary.sends",
    "summary.deliveries",
    "bounds_graph.edges",
    "coordination.achieved_margin",
    "coordination.applicable",
    "coordination.go_sender",
)


def is_cell(record: Mapping[str, Any], require_ok: bool = True) -> bool:
    """Whether one store record is a sweep *cell*: telemetry never is.

    With ``require_ok`` (the default for report tables) error cells are not
    either; ``require_ok=False`` keeps them for surfaces that show failures
    but must still exclude telemetry.
    """
    if record.get("kind") == TELEMETRY_KIND:
        return False
    return not require_ok or record.get("status") == "ok"


def cell_records(
    records: Sequence[Mapping[str, Any]], require_ok: bool = True
) -> List[Mapping[str, Any]]:
    """Only the sweep *cells* of a store scan (see :func:`is_cell`)."""
    return [record for record in records if is_cell(record, require_ok)]


def flatten_scalars(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten nested mappings/sequences into dotted-path scalar leaves.

    Every scalar survives: numbers become floats, booleans stay booleans,
    strings stay strings, ``None`` stays ``None``.  Lists and tuples flatten
    by index.  Unknown leaf types degrade to ``repr`` (still visible, never
    dropped).
    """
    flat: Dict[str, Any] = {}
    _flatten_into(prefix, value, flat)
    return flat


def _flatten_into(prefix: str, value: Any, into: Dict[str, Any]) -> None:
    # Exact JSON types are dispatched by identity first; isinstance(value,
    # Mapping) is an ABC check, several times slower.  Other types (subclasses,
    # tuples, enums) fall through to the isinstance tests.
    kind = type(value)
    if kind is str or kind is bool or value is None:
        into[prefix] = value
    elif kind is float or kind is int:
        into[prefix] = float(value)
    elif kind is dict or (kind is not list and isinstance(value, Mapping)):
        for key, inner in value.items():
            _flatten_into(f"{prefix}.{key}" if prefix else str(key), inner, into)
    elif kind is list or isinstance(value, (list, tuple)):
        for index, inner in enumerate(value):
            _flatten_into(f"{prefix}.{index}" if prefix else str(index), inner, into)
    elif isinstance(value, str):
        into[prefix] = value
    elif isinstance(value, (int, float)):
        into[prefix] = float(value)
    else:
        into[prefix] = repr(value)


def report_row(record: Mapping[str, Any], source: str = "analyses") -> Dict[str, Any]:
    """One record's report row: its ``source`` section, flattened."""
    return flatten_scalars(record.get(source, {}))


def group_records(
    records: Sequence[Mapping[str, Any]],
    group_fields: Sequence[str],
    source: str = "analyses",
    rows: Optional[Sequence[Mapping[str, Any]]] = None,
) -> Dict[Tuple[str, ...], List[Mapping[str, Any]]]:
    """Bucket records by their group-field values; rows are flattened leaves.

    ``rows``, when given, holds each record's :func:`report_row` already
    flattened (``rows[i]`` belongs to ``records[i]``), so a caller that
    keeps rows across reports does not flatten again.

    Telemetry records are skipped even if a caller forgot
    :func:`cell_records`: a ``sweep_telemetry`` record carries no analyses,
    and counting it as a cell would corrupt every ``cells`` column.
    """
    groups: Dict[Tuple[str, ...], List[Mapping[str, Any]]] = {}
    for index, record in enumerate(records):
        if record.get("kind") == TELEMETRY_KIND:
            continue
        group = tuple([str(record.get(field, "?")) for field in group_fields])
        row = report_row(record, source) if rows is None else rows[index]
        groups.setdefault(group, []).append(row)
    return groups


def aggregate_metric(
    rows: Sequence[Mapping[str, Any]], metric: str
) -> Optional[Dict[str, Any]]:
    """Summarise one metric column across a group's rows.

    Returns ``None`` when no row carries the metric.  All-numeric columns
    (booleans excluded — ``True`` is a label here, not ``1.0``) aggregate to
    ``{"mean", "min", "max", "n"}``; anything else aggregates to value
    counts ``{"counts": {...}, "n"}`` with deterministic (sorted) count keys.
    """
    values = [row[metric] for row in rows if metric in row]
    if not values:
        return None
    if all(map(isinstance, values, repeat(float))):  # a bool is no float
        return {
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
        }
    counts: Dict[str, int] = {}
    for value in values:
        label = str(value)
        counts[label] = counts.get(label, 0) + 1
    return {"counts": dict(sorted(counts.items())), "n": len(values)}


def format_aggregate(summary: Optional[Mapping[str, Any]]) -> str:
    """One table cell: ``mean/min/max`` for numbers, ``label:n`` for counts."""
    if summary is None:
        return "-"
    if "mean" in summary:
        return f"{summary['mean']:.2f}/{summary['min']:g}/{summary['max']:g}"
    return " ".join(f"{label}:{n}" for label, n in summary["counts"].items())


def report_groups(
    records: Sequence[Mapping[str, Any]],
    group_fields: Sequence[str],
    metrics: Optional[Sequence[str]] = None,
    rows: Optional[Sequence[Mapping[str, Any]]] = None,
) -> List[Tuple[Tuple[str, ...], int, Dict[str, Dict[str, Any]]]]:
    """The one report aggregation: ``(group, cells, summaries)`` per group,
    sorted by group.

    ``summaries`` maps each requested metric (default
    :data:`DEFAULT_REPORT_METRICS`) that any row of the group carries to its
    :func:`aggregate_metric` summary.  Every report surface is a view of
    this: :func:`report_payload` (``repro report --json``, serve
    ``/report``) and the text table and HTML rows of ``repro report``
    (:func:`format_aggregate` of each summary).  ``rows`` passes
    pre-flattened rows through to :func:`group_records`; records then need
    no ``analyses``.
    """
    chosen = list(metrics) if metrics else list(DEFAULT_REPORT_METRICS)
    groups = group_records(records, group_fields, rows=rows)
    aggregated: List[Tuple[Tuple[str, ...], int, Dict[str, Dict[str, Any]]]] = []
    for group, group_rows in sorted(groups.items()):
        summaries: Dict[str, Dict[str, Any]] = {}
        for metric in chosen:
            summary = aggregate_metric(group_rows, metric)
            if summary is not None:
                summaries[metric] = summary
        aggregated.append((group, len(group_rows), summaries))
    return aggregated


def report_payload(
    records: Sequence[Mapping[str, Any]],
    group_fields: Sequence[str],
    metrics: Optional[Sequence[str]] = None,
    rows: Optional[Sequence[Mapping[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """The machine-readable report: one dict per group, sorted by group.

    Each entry carries the group-field values, the ``cells`` count, and the
    :func:`report_groups` summary of each requested metric (absent metrics
    are omitted, not ``None``-padded).  This is the single shape behind
    ``repro report --json`` and the serve ``/report`` endpoint, so the two
    surfaces can never drift.

    A group field named ``cells`` or like a requested metric would share its
    entry key with that value and lose it, so it raises :class:`SpecError`
    (``field="group_by"``) naming the field.
    """
    chosen = list(metrics) if metrics else list(DEFAULT_REPORT_METRICS)
    for name in group_fields:
        if name == "cells" or name in chosen:
            clash = "the 'cells' count" if name == "cells" else "a requested metric"
            raise SpecError(
                f"group_by: field {name!r} is also {clash} of the JSON report",
                field="group_by",
            )
    return [
        {**dict(zip(group_fields, group)), "cells": cells, **summaries}
        for group, cells, summaries in report_groups(records, group_fields, chosen, rows)
    ]


def discover_metrics(
    groups: Mapping[Tuple[str, ...], Sequence[Mapping[str, Any]]],
) -> List[str]:
    """Every flattened metric path present in any row, sorted."""
    names: set = set()
    for rows in groups.values():
        for row in rows:
            names.update(row)
    return sorted(names)
