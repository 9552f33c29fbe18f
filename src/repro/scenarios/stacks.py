"""Stack executors: the one runner body behind each scenario family.

A *stack* turns ``(ScenarioSpec, seed, BuildCache)`` into a stats dict.
Stacks register by name (:func:`register_stack`); scenario specs select
one via their ``stack`` field and :func:`resolve_stack` finds it.

Built-in here:

* ``chaos``    — one chaos-campaign cell: looks the named configuration
  up (:func:`repro.chaos.chaos_case`, with the scenario's overrides),
  derives or replays the fault schedule, runs it, reports violations.
* ``overload`` — the flash-crowd A/B body: replay a precomputed
  open-loop plan against the spec's cluster topology (with or without a
  middleware chain) and summarise latency/backlog/SLO counters.
* ``reshard``  — the elastic-keyspace campaign cell: chaos semantics
  plus an up-front replay of the scenario's ``moves`` handover plan, so
  malformed plans (overlaps, unknown shards, epoch regressions) die at
  validation time.

Every stack's ``validate(spec)`` runs during ``ScenarioSpec.validate()``
— misconfiguration fails before any node exists.
"""

from __future__ import annotations

from typing import Any, Dict, TYPE_CHECKING

from repro.chaos.cases import chaos_case
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.cache import BuildCache
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["register_stack", "resolve_stack"]

_STACKS: Dict[str, Any] = {}


def register_stack(stack) -> None:
    """Register an executor object (``name``, ``validate``, ``run``)."""
    if not getattr(stack, "name", ""):
        raise ConfigurationError("a stack needs a non-empty name")
    _STACKS[stack.name] = stack


def resolve_stack(name: str):
    if name not in _STACKS:
        raise ConfigurationError(f"unknown stack {name!r}; known: {sorted(_STACKS)}")
    return _STACKS[name]


# ======================================================================
# chaos
# ======================================================================
class ChaosStack:
    """One chaos-campaign cell: a row of :data:`repro.chaos.CASES`.

    ``params.config`` names the row; ``scale`` entries override its
    run-scale knobs (ops, settle_ms...); the ``faults`` fragment
    overrides the palette, budget and windows.  Only knobs the row
    declares are accepted.  What the run enforces is the row's
    ``invariants``; the cell result reports them.
    """

    name = "chaos"

    def _case(self, spec: "ScenarioSpec"):
        overrides = dict(spec.scale)
        faults = spec.faults
        if faults is not None:
            if faults.palette:
                overrides["fault_kinds"] = faults.palette
            for knob in ("max_actions", "min_start_ms", "horizon_ms"):
                if getattr(faults, knob) is not None:
                    overrides[knob] = getattr(faults, knob)
        return chaos_case(spec.params_dict().get("config"), **overrides)

    def validate(self, spec: "ScenarioSpec") -> None:
        params = spec.params_dict()
        if "config" not in params:
            raise ConfigurationError(
                f"scenario {spec.name!r}: the chaos stack needs "
                "params.config (a chaos config name)"
            )
        unknown = set(params) - {"config"}
        if unknown:
            raise ConfigurationError(
                f"scenario {spec.name!r}: unknown chaos params {sorted(unknown)}"
            )
        if spec.topology is not None:
            raise ConfigurationError(
                f"scenario {spec.name!r}: chaos configurations build their "
                "own topology; omit 'topology'"
            )
        if spec.workload is not None:
            raise ConfigurationError(
                f"scenario {spec.name!r}: chaos configurations carry their "
                "workload in 'scale' knobs; omit 'workload'"
            )
        self._case(spec)  # raises on unknown config, knobs, bad values

    def run(self, spec: "ScenarioSpec", seed: int, cache: "BuildCache") -> Dict[str, Any]:
        fingerprint = spec.fingerprint()
        case = cache.get_or_build("case", fingerprint, lambda: self._case(spec))
        explicit = spec.faults.actions if spec.faults is not None else ()
        if explicit:
            schedule = list(explicit)
        else:
            schedule = cache.get_or_build(
                "schedule",
                (fingerprint, seed),
                lambda: case.derive_schedule(seed),
            )
        result = case.run(seed, actions=list(schedule))
        return {
            "config": case.name,
            "invariants": list(case.invariants),
            "ok": result.ok,
            "violations": list(result.violations),
            "schedule": [dict(vars(action)) for action in result.actions],
            "n_actions": len(result.actions),
            "campaign_fingerprint": result.fingerprint(),
            "events": result.stats.get("events"),
        }


# ======================================================================
# reshard
# ======================================================================
class ReshardStack(ChaosStack):
    """The elastic-keyspace campaign cell.

    Execution is the chaos stack's, byte for byte; the point of the
    dedicated name is validation.  On top of the chaos checks (the
    lookup replays the plan through :func:`repro.elastic.validate_moves`,
    which rejects overlapping ranges, unknown source/destination shards
    and epoch regressions), the configuration must actually carry a
    ``moves`` handover plan — a reshard cell that silently degraded into
    a static-topology chaos run would claim coverage it does not have.
    """

    name = "reshard"

    def validate(self, spec: "ScenarioSpec") -> None:
        super().validate(spec)
        if self._case(spec).moves is None:
            raise ConfigurationError(
                f"scenario {spec.name!r}: the reshard stack needs a chaos "
                "config carrying a 'moves' handover plan"
            )


# ======================================================================
# overload
# ======================================================================
#: flash-plan options the overload stack requires (the full arrival-
#: schedule parameterisation; see ``repro.workload.traffic.flash_plan``).
_FLASH_KEYS = frozenset(
    (
        "sessions", "n_keys", "skew", "write_fraction", "base_rate",
        "flash_rate", "flash_start_ms", "flash_end_ms", "duration_ms",
    )
)


class OverloadStack:
    """The flash-crowd overload body behind ``benchmarks/test_overload.py``.

    The precomputed plan is cached by the *workload fragment's*
    fingerprint — a baseline and an armed scenario sharing the workload
    share one plan, which is exactly what makes their comparison an A/B
    over byte-identical offered load.
    """

    name = "overload"

    def validate(self, spec: "ScenarioSpec") -> None:
        if spec.topology is None:
            raise ConfigurationError(
                f"scenario {spec.name!r}: the overload stack needs a "
                "'topology' (the cluster the load is offered to)"
            )
        if spec.workload is None or spec.workload.kind != "flash-plan":
            raise ConfigurationError(
                f"scenario {spec.name!r}: the overload stack needs a "
                "'flash-plan' workload"
            )
        missing = _FLASH_KEYS - set(spec.workload.options_dict())
        if missing:
            raise ConfigurationError(
                f"scenario {spec.name!r}: flash-plan workload missing "
                f"options {sorted(missing)}"
            )
        extra = set(spec.workload.options_dict()) - _FLASH_KEYS
        if extra:
            raise ConfigurationError(
                f"scenario {spec.name!r}: unknown flash-plan options "
                f"{sorted(extra)}"
            )
        unknown = set(spec.scale_dict()) - {"cost_scale", "drain_ms", "probe_ms"}
        if unknown:
            raise ConfigurationError(
                f"scenario {spec.name!r}: unknown overload scale knobs "
                f"{sorted(unknown)}"
            )
        unknown_params = set(spec.params_dict()) - {"session_region"}
        if unknown_params:
            raise ConfigurationError(
                f"scenario {spec.name!r}: unknown overload params "
                f"{sorted(unknown_params)}"
            )
        if spec.faults is not None:
            raise ConfigurationError(
                f"scenario {spec.name!r}: the overload stack injects no "
                "faults; omit 'faults'"
            )

    def run(self, spec: "ScenarioSpec", seed: int, cache: "BuildCache") -> Dict[str, Any]:
        from repro.crypto.costs import CostModel, use_cost_model
        from repro.deploy import build
        from repro.experiments.common import fresh_env
        from repro.metrics import summarize

        workload = spec.workload
        options = workload.options_dict()
        plan = cache.get_or_build(
            "plan", (workload.fingerprint(), seed), lambda: workload.build(seed)
        )
        scale = spec.scale_dict()
        cost_scale = scale.get("cost_scale", 1.0)
        drain_ms = scale.get("drain_ms", 0.0)
        probe_ms = scale.get("probe_ms", 50.0)
        region = spec.params_dict().get("session_region", "virginia")
        n_sessions = options["sessions"]
        duration_ms = options["duration_ms"]

        with use_cost_model(CostModel().scaled(cost_scale)):
            sim, network = fresh_env(seed=seed, jitter=0.0)
            cluster = build(sim, spec.topology, network=network)
            sessions = [
                cluster.session(f"u{index}", region) for index in range(n_sessions)
            ]

            def fire(descriptor):
                session_index, kind, key = descriptor
                session = sessions[session_index]
                if kind == "write":
                    session.write(key, sim.now)
                else:
                    session.read(key)

            for arrival_ms, descriptor in plan:
                sim.schedule_at(arrival_ms, fire, descriptor)

            peak_backlog = [0]

            def probe():
                backlog = sum(session.pending_ops for session in sessions)
                if backlog > peak_backlog[0]:
                    peak_backlog[0] = backlog
                if sim.now < duration_ms:
                    sim.schedule_at(sim.now + probe_ms, probe)

            sim.schedule_at(0.0, probe)
            sim.run(until=duration_ms + drain_ms)

            samples = [sample for s in sessions for sample in s.completed]
            writes = [
                (kind, issued, latency) for kind, _key, issued, latency in samples
            ]
            flash = summarize(
                writes,
                kind="write",
                after_ms=options["flash_start_ms"],
                before_ms=options["flash_end_ms"],
            )
            overall = summarize(writes, kind="write")
            result = {
                "middleware": [entry.name for entry in spec.topology.middleware],
                "writes_completed": overall.count,
                "write_p50_ms": round(overall.p50, 1),
                "write_p99_ms": round(overall.p99, 1),
                "flash_write_p99_ms": round(flash.p99, 1),
                "peak_backlog": peak_backlog[0],
                "events": sim.events_processed,
                "offered_ops": len(plan),
            }
            if cluster.has_middleware:
                snap = cluster.middleware_instance("slo-metrics").snapshot()
                result["slo"] = {
                    "offered": snap["offered"],
                    "completed": snap["completed"],
                    "served": snap["served"],
                    "shed": snap["shed"],
                    "max_inflight": snap["max_inflight"],
                }
            return result


register_stack(ChaosStack())
register_stack(ReshardStack())
register_stack(OverloadStack())
