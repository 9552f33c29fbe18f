"""Declarative scenario and suite specifications.

A :class:`ScenarioSpec` is pure data describing one experiment cell
family: which *stack* executes it (a registered runner — ``"chaos"``,
``"overload"``, ``"reshard"``), the *topology* (an embedded
:class:`~repro.deploy.ClusterSpec`, when the stack builds a cluster),
the *workload* (rate curves, key distributions, session
counts), the *faults* (palette kinds with budgets/windows, or an
explicit action list), the *run scale* and the *metrics* to emit into
result artifacts.

A :class:`SuiteSpec` layers scenarios elspeth-style: suite-level
``defaults`` are deep-merged **under** each scenario's own data, and
per-scenario ``overrides`` (keyed by scenario name) merge on top — so a
suite file states the common shape once and each scenario carries only
its deltas.  ``validate()`` runs at load time and fails before any node
exists.

Fingerprints: every spec and fragment has a canonical structural
fingerprint (:mod:`repro.scenarios.fingerprint`).  The fingerprint is
the cache identity — two scenarios sharing a workload fragment share one
precomputed plan — and the determinism identity recorded in result
artifacts.  A scenario's ``name`` is deliberately *excluded* from its
fingerprint: renaming a scenario must not invalidate caches or change
what the artifact claims was run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.chaos.actions import FaultAction, NET_KINDS, NODE_KINDS
from repro.chaos.schedule import overlapping_windows
from repro.deploy import ClusterSpec
from repro.errors import ConfigurationError
from repro.scenarios.fingerprint import structural_fingerprint

__all__ = [
    "WorkloadSpec",
    "FaultSpec",
    "ScenarioSpec",
    "SuiteSpec",
    "suite_from_dict",
    "load_suite",
    "deep_merge",
]

#: workload kinds scenario specs may declare.  ``flash-plan`` builds a
#: precomputed open-loop arrival schedule (:func:`repro.workload.traffic.
#: flash_plan`).
WORKLOAD_KINDS = ("flash-plan",)

_ALL_FAULT_KINDS = tuple(NODE_KINDS) + tuple(NET_KINDS)


def _freeze(value: Any) -> Any:
    """Recursively turn suite-file data into hashable spec storage.

    Lists/tuples stay ordered (order is semantic); mappings sort by key
    so two differently-ordered files produce equal specs.
    """
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _options_tuple(options: Optional[Mapping]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted((k, _freeze(v)) for k, v in dict(options or {}).items()))


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
    def of(kind: str, **options) -> "WorkloadSpec":
        return WorkloadSpec(kind, _options_tuple(options))

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

    def fingerprint(self) -> str:
        return structural_fingerprint(("workload", self.kind, self.options))

    def validate(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; known: "
                f"{sorted(WORKLOAD_KINDS)}"
            )
        _check_non_negative(self.options, f"workload {self.kind!r}")

    def build(self, seed: int) -> Any:
        """Materialise the workload's precomputed artifact for ``seed``:
        the ``flash-plan`` open-loop arrival schedule."""
        from repro.workload.traffic import flash_plan

        try:
            return flash_plan(seed, **self.options_dict())
        except TypeError as error:
            raise ConfigurationError(f"workload flash-plan: {error}") from None


# ======================================================================
# Faults
# ======================================================================
@dataclass(frozen=True)
class FaultSpec:
    """One fault-schedule fragment.

    Either a *palette* (kinds drawn per seed within ``max_actions`` /
    window bounds — the chaos campaign's generated schedules) or an
    explicit ``actions`` replay list.  An empty FaultSpec means the stack
    keeps its own (targeted) schedule shape and only the window bounds
    apply.  ``palette`` order is semantic: the seeded draw enumerates
    choices in palette order.
    """

    palette: Tuple[str, ...] = ()
    max_actions: Optional[int] = None
    min_start_ms: Optional[float] = None
    horizon_ms: Optional[float] = None
    actions: Tuple[FaultAction, ...] = ()

    @staticmethod
    def of(
        palette: Sequence[str] = (),
        max_actions: Optional[int] = None,
        min_start_ms: Optional[float] = None,
        horizon_ms: Optional[float] = None,
        actions: Sequence = (),
    ) -> "FaultSpec":
        parsed = tuple(
            a if isinstance(a, FaultAction) else FaultAction(**dict(a))
            for a in actions
        )
        return FaultSpec(
            palette=tuple(palette),
            max_actions=max_actions,
            min_start_ms=min_start_ms,
            horizon_ms=horizon_ms,
            actions=parsed,
        )

    @staticmethod
    def from_dict(data: Mapping) -> "FaultSpec":
        known = {"palette", "max_actions", "min_start_ms", "horizon_ms", "actions"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"faults: unknown keys {sorted(unknown)} (known: {sorted(known)})"
            )
        try:
            return FaultSpec.of(**data)
        except TypeError as error:
            raise ConfigurationError(f"faults: {error}") from None

    def fingerprint(self) -> str:
        return structural_fingerprint(
            (
                "faults",
                self.palette,
                self.max_actions,
                self.min_start_ms,
                self.horizon_ms,
                self.actions,
            )
        )

    def validate(self) -> None:
        if self.palette and self.actions:
            raise ConfigurationError(
                "faults: give either a palette (seeded draws) or an explicit "
                "actions list, not both"
            )
        for kind in self.palette:
            if kind not in _ALL_FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; known: "
                    f"{sorted(_ALL_FAULT_KINDS)}"
                )
        if self.max_actions is not None and self.max_actions < 0:
            raise ConfigurationError(
                f"faults: max_actions budget must be >= 0, got {self.max_actions}"
            )
        if self.min_start_ms is not None and self.min_start_ms < 0:
            raise ConfigurationError(
                f"faults: min_start_ms must be >= 0, got {self.min_start_ms}"
            )
        if (
            self.horizon_ms is not None
            and self.min_start_ms is not None
            and self.horizon_ms < self.min_start_ms
        ):
            raise ConfigurationError(
                f"faults: horizon_ms {self.horizon_ms} before "
                f"min_start_ms {self.min_start_ms}"
            )
        for action in self.actions:
            if action.kind not in _ALL_FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {action.kind!r} in explicit action "
                    f"on {action.target!r}; known: {sorted(_ALL_FAULT_KINDS)}"
                )
            if action.duration_ms < 0 or action.start_ms < 0:
                raise ConfigurationError(
                    f"faults: negative window on {action.target!r} "
                    f"({action.kind} at {action.start_ms} for "
                    f"{action.duration_ms} ms)"
                )
        for problem in overlapping_windows(self.actions):
            raise ConfigurationError(
                f"faults: {problem} — one window per (kind, target) slot at "
                "a time, or replay undo becomes ambiguous"
            )


# ======================================================================
# Scenario
# ======================================================================
@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: everything a run needs except the seed."""

    name: str
    stack: str
    topology: Optional[ClusterSpec] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    workload: Optional[WorkloadSpec] = None
    faults: Optional[FaultSpec] = None
    scale: Tuple[Tuple[str, Any], ...] = ()
    metrics: Tuple[str, ...] = ()

    @staticmethod
    def of(
        name: str,
        stack: str,
        topology: Any = None,
        params: Optional[Mapping] = None,
        workload: Any = None,
        faults: Any = None,
        scale: Optional[Mapping] = None,
        metrics: Sequence[str] = (),
    ) -> "ScenarioSpec":
        """Build a spec from convenient Python data (dicts allowed)."""
        if isinstance(topology, Mapping):
            topology = ClusterSpec.from_dict(topology)
        if isinstance(workload, Mapping):
            workload = WorkloadSpec.from_dict(workload)
        if isinstance(faults, Mapping):
            faults = FaultSpec.from_dict(faults)
        return ScenarioSpec(
            name=name,
            stack=stack,
            topology=topology,
            params=_options_tuple(params),
            workload=workload,
            faults=faults,
            scale=_options_tuple(scale),
            metrics=tuple(metrics),
        )

    @staticmethod
    def from_dict(data: Mapping) -> "ScenarioSpec":
        known = {
            "name", "stack", "topology", "params", "workload", "faults",
            "scale", "metrics",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"scenario {data.get('name')!r}: unknown keys {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        return ScenarioSpec.of(
            name=data.get("name", ""),
            stack=data.get("stack", ""),
            topology=data.get("topology"),
            params=data.get("params"),
            workload=data.get("workload"),
            faults=data.get("faults"),
            scale=data.get("scale"),
            metrics=data.get("metrics", ()),
        )

    # ------------------------------------------------------------------
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def scale_dict(self) -> Dict[str, Any]:
        return dict(self.scale)

    # -- fingerprints ---------------------------------------------------
    def fingerprint(self) -> str:
        """Content identity: everything except the display ``name``."""
        return structural_fingerprint(
            (
                "scenario",
                self.stack,
                self.topology,
                self.params,
                self.workload,
                self.faults,
                self.scale,
                self.metrics,
            )
        )

    def workload_fingerprint(self) -> str:
        if self.workload is None:
            return structural_fingerprint(("workload", None))
        return self.workload.fingerprint()

    def faults_fingerprint(self) -> str:
        if self.faults is None:
            return structural_fingerprint(("faults", None))
        return self.faults.fingerprint()

    def scale_fingerprint(self) -> str:
        return structural_fingerprint(("scale", self.scale))

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Fail on any configuration mistake, before any node exists."""
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if not self.stack:
            raise ConfigurationError(
                f"scenario {self.name!r}: stack must be non-empty"
            )
        if self.topology is not None:
            self.topology.validate()
        if self.workload is not None:
            self.workload.validate()
        if self.faults is not None:
            self.faults.validate()
        _check_non_negative(self.scale, f"scenario {self.name!r} scale")
        from repro.scenarios.stacks import resolve_stack

        stack = resolve_stack(self.stack)
        stack.validate(self)


# ======================================================================
# Suites
# ======================================================================
def deep_merge(base: Mapping, override: Mapping) -> Dict[str, Any]:
    """Layer ``override`` on top of ``base``, recursing into mappings.

    Non-mapping values (lists included — a palette override replaces the
    palette, it does not append) are taken wholesale from ``override``.
    """
    merged: Dict[str, Any] = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), Mapping):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


@dataclass(frozen=True)
class SuiteSpec:
    """A named scenario matrix: scenarios x seeds."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    seeds: Tuple[int, ...] = (1,)

    def scenario(self, name: str) -> ScenarioSpec:
        for spec in self.scenarios:
            if spec.name == name:
                return spec
        raise KeyError(
            f"suite {self.name!r} has no scenario {name!r}; known: "
            f"{[s.name for s in self.scenarios]}"
        )

    def validate(self) -> None:
        if not self.scenarios:
            raise ConfigurationError(f"suite {self.name!r} declares no scenarios")
        if not self.seeds:
            raise ConfigurationError(f"suite {self.name!r} declares no seeds")
        for spec in self.scenarios:
            spec.validate()


def suite_from_dict(data: Mapping) -> SuiteSpec:
    """Assemble and validate a suite from file data (layering applied).

    ``defaults`` merges under each scenario dict; ``overrides`` (keyed by
    scenario name) merges on top.  An override referencing an undefined
    scenario is a configuration error — a typo there would otherwise
    silently change nothing.
    """
    known = {"name", "seeds", "defaults", "scenarios", "overrides"}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"suite: unknown keys {sorted(unknown)} (known: {sorted(known)})"
        )
    defaults = data.get("defaults", {})
    scenario_dicts = list(data.get("scenarios", ()))
    overrides = dict(data.get("overrides", {}))
    declared = []
    for entry in scenario_dicts:
        if "name" not in entry:
            raise ConfigurationError(
                f"suite scenario entry without a name: {sorted(entry)}"
            )
        declared.append(entry["name"])
    duplicates = {n for n in declared if declared.count(n) > 1}
    if duplicates:
        raise ConfigurationError(
            f"suite: duplicate scenario names {sorted(duplicates)}"
        )
    undefined = set(overrides) - set(declared)
    if undefined:
        raise ConfigurationError(
            f"suite overrides reference undefined scenarios "
            f"{sorted(undefined)}; declared: {sorted(declared)}"
        )
    scenarios: List[ScenarioSpec] = []
    for entry in scenario_dicts:
        merged = deep_merge(defaults, entry)
        if entry["name"] in overrides:
            merged = deep_merge(merged, overrides[entry["name"]])
        scenarios.append(ScenarioSpec.from_dict(merged))
    seeds = tuple(int(s) for s in data.get("seeds", (1,)))
    suite = SuiteSpec(
        name=data.get("name", "suite"),
        scenarios=tuple(scenarios),
        seeds=seeds,
    )
    suite.validate()
    return suite


def load_suite(path) -> SuiteSpec:
    """Load a suite from a ``.yaml``/``.yml`` or ``.json`` file."""
    import json
    import pathlib

    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - depends on environment
            raise ConfigurationError(
                f"cannot load {path.name}: PyYAML is not installed "
                "(use a .json suite instead)"
            ) from None
        data = yaml.safe_load(text)
    elif path.suffix == ".json":
        data = json.loads(text)
    else:
        raise ConfigurationError(
            f"unsupported suite format {path.suffix!r} (expected .yaml/.json)"
        )
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"suite file {path.name} must hold a mapping, got "
            f"{type(data).__name__}"
        )
    return suite_from_dict(data)
