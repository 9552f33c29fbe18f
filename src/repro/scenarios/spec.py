"""The overload scenario's declarative spec.

A :class:`ScenarioSpec` is pure data describing one overload cell: the
*topology* (an embedded :class:`~repro.deploy.ClusterSpec`, with or
without a middleware chain), the *workload* (a precomputed
``flash-plan`` open-loop arrival schedule) and the *run scale*.  Its
``stack`` is always ``"overload"``; the chaos and reshard cells are rows
of :data:`repro.chaos.SUITES`.  ``validate()`` fails before any node
exists.

:meth:`ScenarioSpec.fingerprint` is the spec's canonical structural
fingerprint (:mod:`repro.scenarios.fingerprint`).  A scenario's ``name``
is deliberately *excluded* from it: renaming a scenario must not change
what an artifact claims was run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.deploy import ClusterSpec
from repro.errors import ConfigurationError
from repro.scenarios.fingerprint import structural_fingerprint

__all__ = ["WorkloadSpec", "ScenarioSpec"]

#: workload kinds scenario specs may declare.  ``flash-plan`` builds a
#: precomputed open-loop arrival schedule (:func:`repro.workload.traffic.
#: flash_plan`).
WORKLOAD_KINDS = ("flash-plan",)

#: flash-plan options the overload scenario requires (the full arrival-
#: schedule parameterisation; see ``repro.workload.traffic.flash_plan``).
_FLASH_KEYS = frozenset(
    (
        "sessions", "n_keys", "skew", "write_fraction", "base_rate",
        "flash_rate", "flash_start_ms", "flash_end_ms", "duration_ms",
    )
)
#: run-scale knobs the overload scenario reads
_SCALE_KEYS = frozenset(("cost_scale", "drain_ms", "probe_ms"))


def _options_tuple(options: Optional[Mapping]) -> Tuple[Tuple[str, Any], ...]:
    """Sorted ``(key, value)`` pairs: two differently-ordered dicts give
    equal specs."""
    return tuple(sorted(dict(options or {}).items()))


def _check_non_negative(options: Sequence[Tuple[str, Any]], where: str) -> None:
    for key, value in options:
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and value < 0:
            raise ConfigurationError(
                f"{where}: {key} must be >= 0, got {value!r}"
            )


# ======================================================================
# Workload
# ======================================================================
@dataclass(frozen=True)
class WorkloadSpec:
    """One workload fragment: a kind plus its sorted options."""

    kind: str
    options: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def from_dict(data: Mapping) -> "WorkloadSpec":
        if "kind" not in data:
            raise ConfigurationError(
                f"workload needs a 'kind' key, got {sorted(data)}"
            )
        options = {k: v for k, v in data.items() if k != "kind"}
        return WorkloadSpec(data["kind"], _options_tuple(options))

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def validate(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; known: "
                f"{sorted(WORKLOAD_KINDS)}"
            )
        _check_non_negative(self.options, f"workload {self.kind!r}")


# ======================================================================
# Scenario
# ======================================================================
@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative overload scenario: everything a run needs except
    the seed."""

    name: str
    stack: str
    topology: Optional[ClusterSpec] = None
    workload: Optional[WorkloadSpec] = None
    scale: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def of(
        name: str,
        stack: str,
        topology: Any = None,
        workload: Any = None,
        scale: Optional[Mapping] = None,
    ) -> "ScenarioSpec":
        """Build a spec from convenient Python data (dicts allowed)."""
        if isinstance(topology, Mapping):
            topology = ClusterSpec.from_dict(topology)
        if isinstance(workload, Mapping):
            workload = WorkloadSpec.from_dict(workload)
        return ScenarioSpec(
            name=name,
            stack=stack,
            topology=topology,
            workload=workload,
            scale=_options_tuple(scale),
        )

    def scale_dict(self) -> Dict[str, Any]:
        return dict(self.scale)

    def fingerprint(self) -> str:
        """Content identity: everything except the display ``name``."""
        return structural_fingerprint(
            ("scenario", self.stack, self.topology, self.workload, self.scale)
        )

    def validate(self) -> None:
        """Fail on any configuration mistake, before any node exists."""
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.stack != "overload":
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown stack {self.stack!r}; the "
                "only scenario stack is 'overload' (chaos and reshard cells "
                "are rows of repro.chaos.SUITES)"
            )
        if self.topology is not None:
            self.topology.validate()
        if self.workload is not None:
            self.workload.validate()
        _check_non_negative(self.scale, f"scenario {self.name!r} scale")
        if self.topology is None:
            raise ConfigurationError(
                f"scenario {self.name!r}: the overload stack needs a "
                "'topology' (the cluster the load is offered to)"
            )
        if self.workload is None:
            raise ConfigurationError(
                f"scenario {self.name!r}: the overload stack needs a "
                "'flash-plan' workload"
            )
        options = set(self.workload.options_dict())
        if _FLASH_KEYS - options:
            raise ConfigurationError(
                f"scenario {self.name!r}: flash-plan workload missing "
                f"options {sorted(_FLASH_KEYS - options)}"
            )
        if options - _FLASH_KEYS:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown flash-plan options "
                f"{sorted(options - _FLASH_KEYS)}"
            )
        unknown = set(self.scale_dict()) - _SCALE_KEYS
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown overload scale knobs "
                f"{sorted(unknown)}"
            )
