"""Common plumbing for the paper-figure scenarios, plus the scenario registry.

A :class:`Scenario` bundles everything needed to reproduce one of the paper's
figures on the simulator: the timed network, the per-process protocols, the
external-input schedule, the adversarial delivery strategy that pins down the
drawn message pattern, and the horizon.  ``Scenario.run()`` executes it and
returns the :class:`~repro.simulation.runs.Run`; figure modules add named
accessors for the nodes the paper's discussion refers to (the go node, the
nodes at which ``a`` and ``b`` are performed, pivot nodes, ...).

Scenario *builders* (functions returning a fresh :class:`Scenario`) can be
made addressable by name with the :func:`register_scenario` decorator, which
records the builder together with a typed parameter specification.  The
:mod:`repro.experiments` sweep runner and the ``repro`` CLI look builders up
through this registry, expand parameter grids against the declared
:class:`ParamSpec` entries, and reject unknown or ill-typed parameters before
any simulation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..simulation.context import Context, ExternalInput
from ..simulation.delivery import DeliveryStrategy, EarliestDelivery
from ..simulation.engine import Simulator
from ..simulation.network import Process, TimedNetwork
from ..simulation.protocols import Protocol, ProtocolAssignment
from ..simulation.runs import Run


@dataclass
class Scenario:
    """A reproducible experimental setup on the bcm simulator."""

    name: str
    timed_network: TimedNetwork
    protocols: ProtocolAssignment
    external_inputs: List[ExternalInput]
    delivery: DeliveryStrategy = field(default_factory=EarliestDelivery)
    horizon: int = 30
    description: str = ""

    @property
    def context(self) -> Context:
        return Context(self.timed_network, description=self.name)

    def simulator(self) -> Simulator:
        return Simulator(
            context=self.context,
            protocols=self.protocols,
            delivery=self.delivery,
            external_inputs=self.external_inputs,
            horizon=self.horizon,
        )

    def run(self) -> Run:
        """Execute the scenario once and validate the resulting run."""
        run = self.simulator().run()
        run.validate()
        return run

    def with_delivery(self, delivery: DeliveryStrategy) -> "Scenario":
        """The same scenario under a different delivery adversary."""
        return Scenario(
            name=self.name,
            timed_network=self.timed_network,
            protocols=self.protocols,
            external_inputs=list(self.external_inputs),
            delivery=delivery,
            horizon=self.horizon,
            description=self.description,
        )

    def with_horizon(self, horizon: int) -> "Scenario":
        return Scenario(
            name=self.name,
            timed_network=self.timed_network,
            protocols=self.protocols,
            external_inputs=list(self.external_inputs),
            delivery=self.delivery,
            horizon=horizon,
            description=self.description,
        )

    def with_protocol(self, process: Process, protocol: Protocol) -> "Scenario":
        """The same scenario with one process's protocol replaced."""
        assignment = ProtocolAssignment(
            protocols=dict(self.protocols.protocols), default=self.protocols.default
        )
        assignment.assign(process, protocol)
        return Scenario(
            name=self.name,
            timed_network=self.timed_network,
            protocols=assignment,
            external_inputs=list(self.external_inputs),
            delivery=self.delivery,
            horizon=self.horizon,
            description=self.description,
        )


# ---------------------------------------------------------------------------
# The scenario registry.
# ---------------------------------------------------------------------------


class RegistryError(ValueError):
    """Raised on unknown scenario names or ill-typed scenario parameters."""


#: Parameter types the registry supports (JSON scalars, so sweeps serialise).
_PARAM_TYPES = {int: "int", float: "float", str: "str", bool: "bool"}


@dataclass(frozen=True)
class ParamSpec:
    """One typed, sweepable parameter of a registered scenario builder.

    Only JSON-scalar types are allowed so that parameter assignments can be
    hashed into cache keys and round-tripped through the result store.
    Rich parameters (delivery strategies, protocol objects) deliberately stay
    out of the spec; the sweep runner controls those through dedicated axes.
    """

    name: str
    type: type
    default: Any
    description: str = ""
    choices: Optional[Tuple[Any, ...]] = None

    def __post_init__(self) -> None:
        if self.type not in _PARAM_TYPES:
            raise RegistryError(
                f"parameter {self.name!r} has unsupported type {self.type!r}; "
                f"supported: {sorted(t.__name__ for t in _PARAM_TYPES)}"
            )

    def validate(self, value: Any) -> Any:
        """Coerce and check one assignment for this parameter."""
        if self.type is bool:
            if not isinstance(value, bool):
                raise RegistryError(
                    f"parameter {self.name!r} expects bool, got {value!r}"
                )
        elif self.type is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise RegistryError(
                    f"parameter {self.name!r} expects float, got {value!r}"
                )
            value = float(value)
            if not math.isfinite(value):
                # Parameters feed JSON cache keys, which exclude NaN/inf.
                raise RegistryError(
                    f"parameter {self.name!r} must be finite, got {value!r}"
                )
        elif self.type is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise RegistryError(
                    f"parameter {self.name!r} expects int, got {value!r}"
                )
        elif not isinstance(value, str):
            raise RegistryError(f"parameter {self.name!r} expects str, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise RegistryError(
                f"parameter {self.name!r} must be one of {list(self.choices)}, got {value!r}"
            )
        return value

    def parse(self, text: str) -> Any:
        """Parse a command-line string into a validated value."""
        if self.type is bool:
            lowered = text.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return self.validate(True)
            if lowered in ("0", "false", "no", "off"):
                return self.validate(False)
            raise RegistryError(f"cannot parse {text!r} as bool for {self.name!r}")
        try:
            return self.validate(self.type(text))
        except (TypeError, ValueError) as exc:
            raise RegistryError(
                f"cannot parse {text!r} as {_PARAM_TYPES[self.type]} for {self.name!r}"
            ) from exc

    def describe(self) -> str:
        extra = f", one of {list(self.choices)}" if self.choices else ""
        return f"{self.name}: {_PARAM_TYPES[self.type]} = {self.default!r}{extra}"


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, parameterised scenario builder."""

    name: str
    builder: Callable[..., Scenario]
    params: Tuple[ParamSpec, ...] = ()
    description: str = ""
    tags: Tuple[str, ...] = ()

    def param(self, name: str) -> Optional[ParamSpec]:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None

    def has_param(self, name: str) -> bool:
        return self.param(name) is not None

    def defaults(self) -> Dict[str, Any]:
        return {spec.name: spec.default for spec in self.params}

    def resolve(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """The full parameter assignment: declared defaults plus ``overrides``."""
        values = self.defaults()
        for name, value in overrides.items():
            spec = self.param(name)
            if spec is None:
                raise RegistryError(
                    f"scenario {self.name!r} has no parameter {name!r}; "
                    f"declared: {sorted(values)}"
                )
            values[name] = spec.validate(value)
        return values

    def build(self, **overrides: Any) -> Scenario:
        """Build a fresh :class:`Scenario` with validated parameters."""
        return self.builder(**self.resolve(overrides))


_SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    name: str,
    params: Sequence[ParamSpec] = (),
    description: str = "",
    tags: Sequence[str] = (),
) -> Callable[[Callable[..., Scenario]], Callable[..., Scenario]]:
    """Class-of-service decorator registering a scenario builder by name.

    The decorated function is returned unchanged (direct calls keep working,
    including with parameters outside the declared spec); the registry entry
    is available via :func:`get_scenario` and carries the typed spec under
    the builder's ``scenario_spec`` attribute.
    """

    def decorator(builder: Callable[..., Scenario]) -> Callable[..., Scenario]:
        if name in _SCENARIO_REGISTRY:
            raise RegistryError(f"scenario {name!r} is already registered")
        seen = set()
        for spec in params:
            if spec.name in seen:
                raise RegistryError(
                    f"scenario {name!r} declares parameter {spec.name!r} twice"
                )
            seen.add(spec.name)
        doc = (builder.__doc__ or "").strip()
        entry = ScenarioSpec(
            name=name,
            builder=builder,
            params=tuple(params),
            description=description or (doc.splitlines()[0] if doc else ""),
            tags=tuple(tags),
        )
        _SCENARIO_REGISTRY[name] = entry
        builder.scenario_spec = entry  # type: ignore[attr-defined]
        return builder

    return decorator


def get_scenario(name: str) -> ScenarioSpec:
    """Look a registered scenario up by name."""
    try:
        return _SCENARIO_REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown scenario {name!r}; registered: {list_scenarios()}"
        ) from None


def list_scenarios(tag: Optional[str] = None) -> Tuple[str, ...]:
    """All registered scenario names (sorted), optionally filtered by tag."""
    names = (
        name
        for name, spec in _SCENARIO_REGISTRY.items()
        if tag is None or tag in spec.tags
    )
    return tuple(sorted(names))


def scenario_registry() -> Dict[str, ScenarioSpec]:
    """A snapshot of the registry (name -> spec)."""
    return dict(_SCENARIO_REGISTRY)
