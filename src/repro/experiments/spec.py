"""The words a sweep is written in: adversary and backend names, the
telemetry record's marks, and the errors of a malformed sweep.

This module imports nothing, so the ``repro`` argument parser and the
report path (:mod:`repro.experiments.reporting`) can use these names
without loading the runner, the scenario registry or the simulator.  The
modules that act on the names re-export them: :mod:`~repro.experiments.runner`
(whose adversary table :data:`ADVERSARIES` lists) and
:mod:`~repro.experiments.executors`.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "ADVERSARIES",
    "BACKENDS",
    "TELEMETRY_KIND",
    "TELEMETRY_STATUS",
    "SpecError",
    "SweepError",
]

#: The delivery adversaries a sweep can pit scenarios against, in the order
#: of the runner's adversary table (which maps each to its factory).
ADVERSARIES: Tuple[str, ...] = ("earliest", "latest", "random")

#: The backend names ``run_sweep``/the CLI accept.
BACKENDS: Tuple[str, ...] = ("auto", "serial", "fabric")

#: ``kind``/``status`` of the telemetry record a sweep persists; report and
#: cache scans filter on these, so telemetry never masquerades as a cell.
TELEMETRY_KIND = "sweep_telemetry"
TELEMETRY_STATUS = "telemetry"


class SweepError(ValueError):
    """Raised on malformed sweep configurations."""


class SpecError(SweepError):
    """A malformed sweep grid or spec; ``field`` names the offending field.

    The grid errors of :func:`~repro.experiments.runner.make_cell` and
    :func:`~repro.experiments.runner.expand_grid` start their message with
    the field name, so a front end can swap in its own name for the field:
    ``repro`` names the flag, and ``POST /sweeps`` answers 400 with the
    field in the body.
    """

    def __init__(self, message: str, field: str = "spec"):
        super().__init__(message)
        self.field = field
