"""Validation-error matrix: every misconfiguration fails before any node.

``ScenarioSpec.validate()`` (and suite loading, which calls it for every
scenario) must reject bad configuration with an actionable message while
the system is still pure data — no simulator, no nodes, no network.
Each test asserts both the rejection and the useful part of the message.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.chaos.cases
import repro.chaos.rigs
import repro.deploy
from repro.chaos import CASES
from repro.errors import ConfigurationError
from repro.scenarios import ScenarioSpec, load_suite, suite_from_dict


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


def _chaos_spec(**changes) -> ScenarioSpec:
    fields = dict(
        name="probe",
        stack="chaos",
        params={"config": "pbft"},
        faults={"palette": ["crash", "delay"], "max_actions": 2},
        scale={"ops": 8},
    )
    fields.update(changes)
    return ScenarioSpec.of(**fields)


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
    spec = _chaos_spec(faults={"palette": ["crash", "gamma-ray"]})
    with pytest.raises(ConfigurationError, match="unknown fault kind 'gamma-ray'"):
        spec.validate()


def test_unknown_fault_kind_in_explicit_actions():
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "gamma-ray", "target": "a-1", "start_ms": 100.0, "duration_ms": 10.0},
        ]},
    )
    with pytest.raises(ConfigurationError, match="unknown fault kind 'gamma-ray'"):
        spec.validate()


def test_unknown_stack_name():
    spec = ScenarioSpec.of(name="probe", stack="warp-drive")
    with pytest.raises(ConfigurationError, match="unknown stack 'warp-drive'") as err:
        spec.validate()
    assert "chaos" in str(err.value)


def test_unknown_chaos_config():
    spec = _chaos_spec(params={"config": "pbbft"})
    with pytest.raises(ConfigurationError, match="unknown chaos config 'pbbft'") as err:
        spec.validate()
    assert "pbft" in str(err.value)


def test_unknown_harness_knob_via_scale():
    spec = _chaos_spec(scale={"opps": 8})
    with pytest.raises(ConfigurationError, match="'opps'") as err:
        spec.validate()
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
    """Values nothing ever set are module constants now; a suite file that
    still names one fails while it is parsed."""
    with pytest.raises(ConfigurationError, match=f"topology config: .*{field}"):
        ScenarioSpec.of(
            name="probe",
            stack="overload",
            topology={"regions": ["virginia"], "config": {field: 2}},
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
def _case_spec(config: str, **changes) -> ScenarioSpec:
    return ScenarioSpec.of(
        name="probe",
        stack="chaos",
        params={"config": config},
        **changes,
    )


_TARGETED = [name for name, case in CASES.items() if case.schedule is not None]


@pytest.mark.parametrize(
    "config, changes",
    [
        # topology constants are not knobs (used to die mid-run: KeyError)
        ("spider-shard", {"scale": {"shard_ids": ["sa"]}}),
        ("spider-shard", {"scale": {"shard_ids": ["sa", "sb", "sc"]}}),
        ("spider-shard", {"scale": {"exec_groups": {"sa": "x0", "sb": "y0"}}}),
        ("spider-reshard", {"scale": {"shard_regions": {"sa": "tokyo", "sb": "tokyo"}}}),
        ("pbft", {"scale": {"n": 7}}),
        # accepted and silently ignored before: the case never reads them
        ("pbft", {"scale": {"partition_regions": ["mars"]}}),
        ("raft", {"scale": {"partition_regions": ["mars"]}}),
        ("pbft-wipe", {"scale": {"fault_links": 2}}),
        ("raft-skew", {"scale": {"fault_links": 2}}),
        ("spider-reshard", {"scale": {"latency_budget_ms": 10.0}}),
    ]
    + [(name, {"faults": {"palette": ["crash"]}}) for name in _TARGETED]
    + [(name, {"faults": {"max_actions": 1}}) for name in _TARGETED],
)
def test_override_the_case_never_reads(config, changes):
    [knob] = [*changes.get("scale", {}), *changes.get("faults", {})]
    knob = {"palette": "fault_kinds"}.get(knob, knob)
    with pytest.raises(ConfigurationError, match=f"no tunable knob '{knob}'") as err:
        _case_spec(config, **changes).validate()
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
        ("raft", {"fault_links": 7}, "fault_links must be an integer in 0..6"),
        ("spider-reshard", {"moves": []}, "non-empty 'moves'"),
    ],
)
def test_override_out_of_range(config, scale, message):
    with pytest.raises(ConfigurationError, match=message):
        _case_spec(config, scale=scale).validate()


def test_every_declared_knob_accepts_its_own_default():
    """The table is self-consistent: each case validates with every knob
    it declares overridden to the value it already has."""
    for name, case in CASES.items():
        scale = {knob: getattr(case, knob) for knob in case.knobs()}
        faults = {
            key: scale.pop(knob)
            for key, knob in (
                ("palette", "fault_kinds"), ("max_actions", "max_actions"),
                ("min_start_ms", "min_start_ms"), ("horizon_ms", "horizon_ms"),
            )
            if knob in scale
        }
        _case_spec(name, scale=scale, faults=faults).validate()


# ----------------------------------------------------------------------
# negative values and bad windows
# ----------------------------------------------------------------------
def test_negative_workload_rate():
    bad = dict(_FLASH, base_rate=-100.0)
    spec = ScenarioSpec.of(name="probe", stack="overload", workload=bad)
    with pytest.raises(ConfigurationError, match="base_rate must be >= 0"):
        spec.validate()


def test_negative_fault_budget():
    spec = _chaos_spec(faults={"palette": ["crash"], "max_actions": -1})
    with pytest.raises(ConfigurationError, match="max_actions budget must be >= 0"):
        spec.validate()


def test_negative_scale_knob():
    spec = _chaos_spec(scale={"ops": -8})
    with pytest.raises(ConfigurationError, match="ops must be >= 0"):
        spec.validate()


def test_horizon_before_min_start():
    spec = _chaos_spec(
        faults={"palette": ["crash"], "min_start_ms": 5000.0, "horizon_ms": 400.0},
    )
    with pytest.raises(ConfigurationError, match="horizon_ms 400.0 before"):
        spec.validate()


def test_negative_action_window():
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": -5.0},
        ]},
    )
    with pytest.raises(ConfigurationError, match="negative window"):
        spec.validate()


def test_overlapping_windows_same_kind_and_target():
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": 500.0},
            {"kind": "crash", "target": "a-1", "start_ms": 300.0, "duration_ms": 500.0},
        ]},
    )
    with pytest.raises(ConfigurationError, match="one window per \\(kind, target\\) slot"):
        spec.validate()


def test_overlapping_windows_sharing_a_slot():
    """wipe and crash share the crash occupancy slot on one target."""
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": 500.0},
            {"kind": "wipe", "target": "a-1", "start_ms": 300.0, "duration_ms": 500.0},
        ]},
    )
    with pytest.raises(ConfigurationError, match="one window per \\(kind, target\\) slot"):
        spec.validate()


def test_non_overlapping_windows_are_fine():
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": 100.0},
            {"kind": "crash", "target": "a-1", "start_ms": 900.0, "duration_ms": 100.0},
            {"kind": "crash", "target": "a-2", "start_ms": 120.0, "duration_ms": 100.0},
        ]},
    )
    spec.validate()


def test_palette_and_actions_are_mutually_exclusive():
    spec = _chaos_spec(
        faults={
            "palette": ["crash"],
            "actions": [
                {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": 10.0},
            ],
        },
    )
    with pytest.raises(ConfigurationError, match="palette .*or an explicit"):
        spec.validate()


# ----------------------------------------------------------------------
# stack contracts
# ----------------------------------------------------------------------
def test_restated_invariants_are_rejected_by_name():
    """The obligations live in the chaos table only; a suite entry that
    still restates them fails while it is parsed."""
    with pytest.raises(ConfigurationError, match="unknown keys \\['invariants'\\]"):
        ScenarioSpec.from_dict(
            {
                "name": "probe", "stack": "chaos", "params": {"config": "pbft"},
                "invariants": ["sequence-agreement", "exactly-once"],
            }
        )


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
    with pytest.raises(ConfigurationError, match="unknown keys \\['topologi'\\]"):
        ScenarioSpec.from_dict(
            {"name": "probe", "stack": "chaos", "topologi": {}}
        )


# ----------------------------------------------------------------------
# suite-level layering errors
# ----------------------------------------------------------------------
def _suite_data(**changes):
    data = {
        "name": "probe-suite",
        "seeds": [1],
        "defaults": {"stack": "chaos"},
        "scenarios": [
            {
                "name": "pbft-cell",
                "params": {"config": "pbft"},
                "faults": {"palette": ["crash"]},
            },
        ],
    }
    data.update(changes)
    return data


def test_suite_override_for_undefined_scenario():
    data = _suite_data(overrides={"pbft-cel": {"scale": {"ops": 4}}})
    with pytest.raises(ConfigurationError, match="reference undefined scenarios") as err:
        suite_from_dict(data)
    assert "pbft-cel" in str(err.value) and "pbft-cell" in str(err.value)


def test_suite_duplicate_scenario_names():
    data = _suite_data()
    data["scenarios"] = data["scenarios"] * 2
    with pytest.raises(ConfigurationError, match="duplicate scenario names"):
        suite_from_dict(data)


def test_suite_scenario_entry_without_name():
    data = _suite_data(scenarios=[{"params": {"config": "pbft"}}])
    with pytest.raises(ConfigurationError, match="entry without a name"):
        suite_from_dict(data)


def test_suite_with_no_scenarios():
    with pytest.raises(ConfigurationError, match="declares no scenarios"):
        suite_from_dict({"name": "empty", "scenarios": []})


def test_suite_unknown_top_level_key():
    data = _suite_data(defaualts={})
    with pytest.raises(ConfigurationError, match="unknown keys \\['defaualts'\\]"):
        suite_from_dict(data)


def test_suite_error_names_the_failing_scenario():
    """A bad scenario inside a suite is attributed by name at load time."""
    data = _suite_data()
    data["scenarios"][0]["scale"] = {"opps": 4}
    with pytest.raises(ConfigurationError, match="'opps'"):
        suite_from_dict(data)


def test_unsupported_suite_format(tmp_path):
    path = tmp_path / "suite.toml"
    path.write_text("[suite]\n")
    with pytest.raises(ConfigurationError, match="unsupported suite format '.toml'"):
        load_suite(path)


def test_suite_file_must_hold_a_mapping(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ConfigurationError, match="must hold a mapping"):
        load_suite(path)
