"""repro: a reproduction of "On Using Time Without Clocks via Zigzag Causality".

The package is organised in layers:

* :mod:`repro.simulation` -- the bounded-communication-model (bcm) substrate:
  timed networks, full-information messages, protocols, delivery adversaries,
  and a discrete-event engine producing :class:`~repro.simulation.Run` objects.
* :mod:`repro.core` -- the paper's contribution: basic/general nodes, two-legged
  forks and zigzag patterns, basic and extended bounds graphs, timing
  constructions, knowledge of timed precedence, and executable checkers for
  Theorems 1-4.
* :mod:`repro.coordination` -- the ``Early``/``Late`` coordination tasks, the
  optimal zigzag-based protocol for process B, and baseline protocols.
* :mod:`repro.scenarios` -- builders for the exact communication patterns of
  the paper's figures plus randomized workloads and structured-topology
  families, all addressable by name through the scenario registry.
* :mod:`repro.viz` -- ASCII space-time diagrams, bounds-graph dumps,
  GraphML/DOT export, and the static HTML sweep dashboard.
* :mod:`repro.obs` -- zero-dependency observability: process-local metric
  counters/gauges/histograms, ``span()`` tracing (deep mode via the
  ``REPRO_TRACE`` environment variable), and the snapshot-delta collector
  that merges worker metrics into persisted sweep telemetry.
* :mod:`repro.experiments` -- the experiment substrate: a parallel sweep
  runner with deterministic per-cell seeding, versioned analysis passes, a
  persistent content-addressed result store, and the ``repro`` CLI
  (``python -m repro`` or the installed console script).

The most common entry points are re-exported here for convenience.  Every
package re-exports lazily (PEP 562): a name loads its defining module on
first access, so ``import repro`` -- and each ``repro`` command -- loads
only the modules it uses.
"""

import importlib
import sys
import types
from typing import Callable, Dict, List, Tuple

__version__ = "1.0.0"


class _Package(types.ModuleType):
    """A lazily re-exporting package (see :func:`_lazy_exports`).

    Importing a submodule binds it on its package.  Where the package
    re-exports a name equal to a submodule's (``repro.core.path_to_zigzag``
    is a function and a module), that binding is dropped, so the name keeps
    meaning the re-export whichever is imported first.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, types.ModuleType) and name in self.__dict__.get("__all__", ()):
            return
        super().__setattr__(name, value)


def _lazy_exports(
    package: str, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__`` and the PEP 562 ``__getattr__``/``__dir__`` of ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the names
    it defines and ``package`` re-exports.  A name's first access imports
    its submodule and caches the value in the package namespace, so later
    reads never reach ``__getattr__`` again.
    """
    where = {name: module for module, names in exports.items() for name in names}
    sys.modules[package].__class__ = _Package

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return sorted(where), __getattr__, __dir__


_EXPORTS = {
    ".core.bounds_graph": ("basic_bounds_graph",),
    ".core.forks": ("TwoLeggedFork",),
    ".core.knowledge": ("KnowledgeChecker", "knows_precedence", "max_known_gap"),
    ".core.knowledge_session": ("KnowledgeSession",),
    ".core.longest_paths": ("LongestPathEngine",),
    ".core.nodes": ("BasicNode", "GeneralNode", "general"),
    ".core.precedence": ("TimedPrecedence", "precedes"),
    ".core.theorems": (
        "check_theorem1",
        "check_theorem2",
        "check_theorem3",
        "check_theorem4",
        "check_theorem4_batch",
    ),
    ".core.zigzag": ("ZigzagPattern",),
    ".simulation.context": ("Context", "ExternalInput"),
    ".simulation.delivery": ("EarliestDelivery", "LatestDelivery", "SeededRandomDelivery"),
    ".simulation.engine": ("Simulator", "simulate"),
    ".simulation.network": ("Bounds", "Network", "TimedNetwork", "timed_network"),
    ".simulation.runs": ("Run",),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
