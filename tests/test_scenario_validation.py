"""Validation-error matrix: every misconfiguration fails before any node.

:func:`~repro.chaos.chaos_case` (the one way to name a chaos cell),
``ScenarioSpec.validate()`` (the overload scenario) and
``ChaosEngine.install`` (an explicit fault schedule) must reject bad
configuration with an actionable message while the system is still pure
data — no nodes, no network, no scheduled event.  Each test asserts both
the rejection and the useful part of the message.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.chaos.cases
import repro.chaos.rigs
import repro.deploy
from repro.chaos import (
    CASES,
    SUITES,
    CampaignResult,
    ChaosEngine,
    FaultAction,
    chaos_case,
    run_cells,
)
from repro.errors import ConfigurationError
from repro.scenarios import ScenarioSpec
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _no_nodes_may_exist(monkeypatch):
    """Validation must never build anything: poison the deploy entrypoint
    (also under the name the chaos rigs bound it to) and the simulator
    every chaos run starts from."""

    def _forbidden(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("validation must not build a cluster")

    monkeypatch.setattr(repro.deploy, "build", _forbidden)
    monkeypatch.setattr(repro.chaos.rigs, "build", _forbidden)
    monkeypatch.setattr(repro.chaos.cases, "Simulator", _forbidden)
    yield


@pytest.fixture
def sim():
    return Simulator(seed=1)


def _install(sim, *windows):
    """Install an explicit schedule, one ``(kind, target, start_ms,
    duration_ms)`` per window, on an engine over ``sim``."""
    ChaosEngine(sim, network=None, nodes={}).install(
        [FaultAction(*window) for window in windows]
    )


# ----------------------------------------------------------------------
# unknown names
# ----------------------------------------------------------------------
def test_unknown_invariant_name():
    """The obligations are the table row's; a row naming a checker that
    does not exist fails when it is built."""
    with pytest.raises(ConfigurationError, match="unknown invariant 'sequnce-agreement'") as err:
        dataclasses.replace(CASES["pbft"], invariants=("sequnce-agreement",))  # typo
    assert "sequence-agreement" in str(err.value)  # the fix is in the message


def test_unknown_fault_kind_in_palette():
    with pytest.raises(ConfigurationError, match="unknown fault kind 'gamma-ray'"):
        chaos_case("pbft", fault_kinds=["crash", "gamma-ray"])


def test_unknown_fault_kind_in_explicit_actions(sim):
    """Rejected at install, not when its window opens mid-run."""
    with pytest.raises(ConfigurationError, match="unknown fault kind 'gamma-ray'"):
        _install(sim, ("crash", "a-1", 10.0, 10.0), ("gamma-ray", "a-1", 100.0, 10.0))
    assert sim.pending_events == 0  # not even the valid window was scheduled


def test_unknown_stack_name():
    spec = ScenarioSpec.of(name="probe", stack="warp-drive")
    with pytest.raises(ConfigurationError, match="unknown stack 'warp-drive'") as err:
        spec.validate()
    assert "'overload'" in str(err.value) and "SUITES" in str(err.value)


def test_unknown_chaos_config():
    with pytest.raises(ConfigurationError, match="unknown chaos config 'pbbft'") as err:
        chaos_case("pbbft")
    assert "pbft" in str(err.value)


def test_unknown_harness_knob_via_scale():
    with pytest.raises(ConfigurationError, match="'opps'") as err:
        chaos_case("pbft", opps=8)
    assert "ops" in str(err.value)  # the tunable set is listed


def test_unknown_middleware_name():
    spec = ScenarioSpec.of(
        name="probe",
        stack="overload",
        topology={
            "shards": [
                {"shard_id": "s0", "groups": [{"group_id": "g0", "region": "virginia"}]},
            ],
            "config": {},
            "middleware": [{"name": "admision", "options": {"depth": 4}}],
        },
        workload=_FLASH,
        scale={"cost_scale": 10.0},
    )
    with pytest.raises(ConfigurationError, match="unknown middleware 'admision'") as err:
        spec.validate()
    assert "admission" in str(err.value)


@pytest.mark.parametrize("field", ["request_capacity", "client_retry_ms", "fetch_retry_ms"])
def test_config_field_that_became_a_constant_is_rejected_by_name(field):
    """Values nothing ever set are module constants now; topology data
    that still names one fails while it is parsed."""
    with pytest.raises(ConfigurationError, match=f"topology config: .*{field}"):
        ScenarioSpec.of(
            name="probe",
            stack="overload",
            topology={
                "shards": [
                    {"shard_id": "s0", "groups": [{"group_id": "g0", "region": "virginia"}]}
                ],
                "config": {field: 2},
            },
            workload=_FLASH,
        )


_FLASH = {
    "kind": "flash-plan", "sessions": 4, "n_keys": 8, "skew": 0.99,
    "write_fraction": 0.5, "base_rate": 100.0, "flash_rate": 500.0,
    "flash_start_ms": 200.0, "flash_end_ms": 400.0, "duration_ms": 600.0,
}


# ----------------------------------------------------------------------
# chaos overrides: only what the case's rig or schedule reads, in range
# ----------------------------------------------------------------------
_TARGETED = [name for name, case in CASES.items() if case.schedule is not None]


@pytest.mark.parametrize(
    "config, changes",
    [
        # topology constants are not knobs (used to die mid-run: KeyError)
        ("spider-shard", {"shard_ids": ["sa"]}),
        ("spider-shard", {"shard_ids": ["sa", "sb", "sc"]}),
        ("spider-shard", {"exec_groups": {"sa": "x0", "sb": "y0"}}),
        ("spider-reshard", {"shard_regions": {"sa": "tokyo", "sb": "tokyo"}}),
        ("pbft", {"n": 7}),
        # accepted and silently ignored before: the case never reads them
        ("pbft", {"partition_regions": ["mars"]}),
        ("pbft-skew", {"partition_regions": ["mars"]}),
        ("pbft-wipe", {"fault_links": 2}),
        ("pbft-skew", {"fault_links": 2}),
        ("spider-reshard", {"latency_budget_ms": 10.0}),
    ]
    + [(name, {"fault_kinds": ["crash"]}) for name in _TARGETED]
    + [(name, {"max_actions": 1}) for name in _TARGETED],
)
def test_override_the_case_never_reads(config, changes):
    [knob] = changes
    with pytest.raises(ConfigurationError, match=f"no tunable knob '{knob}'") as err:
        chaos_case(config, **changes)
    assert "settle_ms" in str(err.value)  # what *is* tunable is listed


def test_six_cases_are_targeted():
    assert sorted(_TARGETED) == [
        "irmc-equivocate", "irmc-sc-wipe", "pbft-vc-crash", "spider-cp-crash",
        "spider-disk", "spider-reshard",
    ]


@pytest.mark.parametrize(
    "config, scale, message",
    [
        # used to pass validation and die with IndexError after the build
        ("spider", {"clients": 4}, "clients must be an integer in 1..3"),
        ("spider-disk", {"clients": 0}, "clients must be an integer in 1..3"),
        ("pbft", {"fault_links": 13}, "fault_links must be an integer in 0..12"),
        ("spider-reshard", {"moves": []}, "non-empty 'moves'"),
    ],
)
def test_override_out_of_range(config, scale, message):
    with pytest.raises(ConfigurationError, match=message):
        chaos_case(config, **scale)


def test_every_declared_knob_accepts_its_own_default():
    """The table is self-consistent: each case validates with every knob
    it declares overridden to the value it already has."""
    for name, case in CASES.items():
        assert chaos_case(name, **{knob: getattr(case, knob) for knob in case.knobs()}) == case


# ----------------------------------------------------------------------
# negative values and bad windows
# ----------------------------------------------------------------------
def test_negative_workload_rate():
    bad = dict(_FLASH, base_rate=-100.0)
    spec = ScenarioSpec.of(name="probe", stack="overload", workload=bad)
    with pytest.raises(ConfigurationError, match="base_rate must be >= 0"):
        spec.validate()


def test_negative_fault_budget():
    with pytest.raises(ConfigurationError, match="max_actions must be >= 0"):
        chaos_case("pbft", max_actions=-1)


def test_negative_scale_knob():
    with pytest.raises(ConfigurationError, match="ops must be >= 0"):
        chaos_case("pbft", ops=-8)


def test_horizon_before_min_start():
    with pytest.raises(ConfigurationError, match="horizon_ms 400.0 before"):
        chaos_case("pbft", min_start_ms=5000.0, horizon_ms=400.0)


def test_negative_action_window(sim):
    with pytest.raises(ConfigurationError, match="negative window"):
        _install(sim, ("crash", "a-1", 100.0, -5.0))


def test_overlapping_windows_same_kind_and_target(sim):
    with pytest.raises(ConfigurationError, match="one window per \\(kind, target\\) slot"):
        _install(sim, ("crash", "a-1", 100.0, 500.0), ("crash", "a-1", 300.0, 500.0))
    assert sim.pending_events == 0


def test_overlapping_windows_sharing_a_slot(sim):
    """wipe and crash share the crash occupancy slot on one target."""
    with pytest.raises(ConfigurationError, match="one window per \\(kind, target\\) slot"):
        _install(sim, ("crash", "a-1", 100.0, 500.0), ("wipe", "a-1", 300.0, 500.0))


def test_non_overlapping_windows_are_fine(sim):
    _install(
        sim,
        ("crash", "a-1", 100.0, 100.0),
        ("crash", "a-1", 900.0, 100.0),
        ("crash", "a-2", 120.0, 100.0),
    )
    assert sim.pending_events == 6  # an apply and an undo per window


# ----------------------------------------------------------------------
# stack contracts
# ----------------------------------------------------------------------
def test_restated_invariants_are_rejected_by_name():
    """The obligations live in the chaos table only; an override that
    restates them is not a knob."""
    with pytest.raises(ConfigurationError, match="no tunable knob 'invariants'"):
        chaos_case("pbft", invariants=["sequence-agreement", "exactly-once"])


def test_unknown_workload_kind():
    spec = ScenarioSpec.of(
        name="probe", stack="overload", workload={"kind": "open-loop"}
    )
    with pytest.raises(ConfigurationError, match="unknown workload kind 'open-loop'"):
        spec.validate()


def test_overload_needs_a_topology():
    spec = ScenarioSpec.of(name="probe", stack="overload", workload=_FLASH)
    with pytest.raises(ConfigurationError, match="needs a 'topology'"):
        spec.validate()


def test_missing_flash_plan_options_are_listed():
    partial = {"kind": "flash-plan", "sessions": 4}
    spec = ScenarioSpec.of(
        name="probe", stack="overload",
        topology={"shards": [
            {"shard_id": "s0", "groups": [{"group_id": "g0", "region": "virginia"}]},
        ], "config": {}},
        workload=partial,
    )
    with pytest.raises(ConfigurationError, match="missing options") as err:
        spec.validate()
    assert "flash_rate" in str(err.value)


def test_unknown_scenario_keys_are_rejected():
    """The spec has no catch-all: a misspelt field fails where it is written."""
    with pytest.raises(TypeError, match="'topologi'"):
        ScenarioSpec.of(name="probe", stack="overload", topologi={})


# ----------------------------------------------------------------------
# suite rows
# ----------------------------------------------------------------------
def test_suite_error_names_the_failing_scenario(monkeypatch):
    """A bad row of a suite is attributed by scenario name, before any
    node exists, and the suite's other cells still run."""
    monkeypatch.setitem(
        SUITES, "probe-suite", {"pbft-cell": ("pbft", {"opps": 4}), "skew-cell": ("pbft-skew", {})}
    )
    monkeypatch.setattr(
        repro.chaos.cases.ChaosCase, "run", lambda case, seed: CampaignResult(case.name, seed, [], [])
    )
    bad, good = run_cells("probe-suite", seeds=[1])
    assert bad["error"].startswith("scenario 'pbft-cell' seed 1: ConfigurationError")
    assert "'opps'" in bad["error"] and bad["ok"] is False
    assert good["scenario"] == "skew-cell" and good["ok"] is True
