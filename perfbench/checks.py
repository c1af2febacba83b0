"""Output checks, made outside the timed region.

A sweep is correct when its store holds exactly the planned cells and every
stored record's ``analyses`` equals an in-process serial ``run_cell``
recomputation of the same cell.  A served record is correct when it equals
the store's record for that key.  Each check returns a list of mismatch
descriptions; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


class Recompute:
    """Serial in-process recomputation of stored cells, memoized by key."""

    def __init__(self) -> None:
        self._analyses: Dict[str, str] = {}

    def analyses_digest(self, record: Mapping[str, Any]) -> Optional[str]:
        """Digest of the recomputed ``analyses`` of the record's cell, or
        ``None`` when the record's identity does not reproduce its key."""
        key = record.get("key")
        if key in self._analyses:
            return self._analyses[key]
        from repro.experiments.runner import make_cell, run_cell

        try:
            cell = make_cell(
                record["scenario"],
                overrides=record["params"],
                adversary=record["adversary"],
                seed=record["seed"],
                analyses=tuple(record["analysis_versions"]),
                horizon=record.get("horizon"),
            )
        except (KeyError, TypeError, ValueError):
            return None
        if cell.key() != key:
            return None
        value = digest(run_cell(cell)["analyses"])
        self._analyses[key] = value
        return value


def cell_records(store_path: str) -> List[Dict[str, Any]]:
    from repro.experiments.reporting import cell_records as only_cells
    from repro.experiments.store import ResultStore

    return only_cells(ResultStore(store_path).records())


def check_sweep_records(
    records: Iterable[Mapping[str, Any]],
    planned_prefixes: Iterable[str],
    recompute: Recompute,
) -> List[str]:
    """Mismatches between a sweep's stored ok-cell records and the plan.

    ``planned_prefixes`` are the 12-character key prefixes the command's own
    ``--dry-run`` listed.
    """
    problems: List[str] = []
    records = list(records)
    planned = set(planned_prefixes)
    stored = {str(record.get("key", ""))[:12] for record in records}
    if stored != planned:
        problems.append(
            f"stored cells differ from the plan: {len(stored - planned)} unplanned, "
            f"{len(planned - stored)} missing"
        )
    for record in records:
        expected = recompute.analyses_digest(record)
        if expected is None:
            problems.append(f"cell {str(record.get('key'))[:12]}: identity does not match its key")
        elif expected != digest(record.get("analyses")):
            problems.append(f"cell {str(record.get('key'))[:12]}: analyses differ from a serial recompute")
    return problems


def dry_run_prefixes(output: str) -> List[str]:
    """The key prefixes ``repro sweep --dry-run`` lists, one per cell line."""
    prefixes = []
    for line in output.splitlines():
        parts = line.split()
        if line.startswith("  ") and parts and len(parts[0]) == 12:
            prefixes.append(parts[0])
    return prefixes
