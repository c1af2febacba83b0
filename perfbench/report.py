"""One workload run's result: metrics with units, the table, the JSON line."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .stats import OpLog, percentile_if_supported


@dataclass
class Result:
    workload: str
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: name -> (value, unit); None values are printed but not emitted.
    metrics: Dict[str, Tuple[Optional[float], str]] = field(default_factory=dict)
    #: name -> note printed beside the metric (sample counts and the like).
    notes: Dict[str, str] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0

    def put(self, name: str, value: Optional[float], unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        if note:
            self.notes[name] = note

    def table(self) -> str:
        out = [f"== {self.workload} =="]
        out.extend(self.lines)
        width = max((len(name) for name in self.metrics), default=0)
        for name, (value, unit) in self.metrics.items():
            shown = "-" if value is None else f"{value:.6g}"
            note = self.notes.get(name, "")
            out.append(f"  {name:<{width}}  {shown:>12} {unit:<6} {note}".rstrip())
        out.append(f"  attempted {self.attempted}, failed {self.failed}")
        for problem in self.problems[:20]:
            out.append(f"  FAILED: {problem}")
        return "\n".join(out)

    def json_line(self, names: List[str]) -> str:
        metrics = {}
        for name in names:
            value, unit = self.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )


def ledger_table(label: str, layers: Dict[str, float], wall: float) -> List[str]:
    lines = [f"  ledger of the {label} ({wall:.3f}s, self time per layer):"]
    for layer, value in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"    {layer:<28} {value:9.4f}s {100 * value / wall:5.1f}%")
    return lines


def put_latencies(result: Result, ops: Dict[str, OpLog]) -> None:
    """``<kind>_p50_ms`` and ``<kind>_p90_ms`` for reads, reports, writes.

    A p90 is printed only with at least ten samples beyond it.
    """
    for kind in ("read", "report", "write"):
        log = ops[kind]
        summary = log.summary()
        result.put(f"{kind}_p50_ms", summary.p50, "ms", f"n={log.attempted}, tail {summary.describe()}")
        p90 = percentile_if_supported(log.latencies_ms, 90)
        result.put(f"{kind}_p90_ms", p90, "ms", f"n={log.attempted}")
