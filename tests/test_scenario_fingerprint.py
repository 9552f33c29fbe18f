"""Structural fingerprints: stability, canonicalisation, cache identity.

The fingerprint is the scenario layer's load-bearing primitive: it is
the cache key for every expensive construction and the determinism
identity recorded in artifacts.  These tests pin the properties that
make it safe to use as either:

* construction-order independence — dict/list insertion order and set
  ordering never change the fingerprint (sequence order *does*: it is
  semantic, e.g. fault palettes);
* process-restart stability — no ``id()``, no hash randomisation: the
  same spec fingerprints identically across interpreter runs with
  different ``PYTHONHASHSEED``;
* cache identity — identical specs share one cached instance; any
  single field change produces a distinct fingerprint and a cache miss
  (table-driven over every ScenarioSpec field).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.scenarios import (
    BuildCache,
    ScenarioSpec,
    canonical_repr,
    structural_fingerprint,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


# ----------------------------------------------------------------------
# canonicalisation
# ----------------------------------------------------------------------
def test_mapping_insertion_order_is_irrelevant():
    a = {"x": 1, "y": [1, 2], "z": {"p": 1, "q": 2}}
    b = {"z": {"q": 2, "p": 1}, "y": [1, 2], "x": 1}
    assert structural_fingerprint(a) == structural_fingerprint(b)


def test_sequence_order_is_semantic():
    assert structural_fingerprint([1, 2]) != structural_fingerprint([2, 1])


def test_set_order_is_canonicalised():
    assert structural_fingerprint({3, 1, 2}) == structural_fingerprint({2, 3, 1})


def test_atoms_do_not_collide_across_types():
    # 1 == 1.0 == True in Python; the canonical form keeps them apart.
    fingerprints = {structural_fingerprint(v) for v in (1, 1.0, True, "1")}
    assert len(fingerprints) == 4


def test_callables_fingerprint_by_qualified_name():
    from repro.chaos.invariants import check_completion

    text = canonical_repr(check_completion)
    assert "repro.chaos.invariants" in text
    assert "0x" not in text


def test_default_repr_objects_are_rejected():
    class Opaque:
        pass

    with pytest.raises(TypeError, match="cannot fingerprint"):
        structural_fingerprint(Opaque())


# ----------------------------------------------------------------------
# spec-level properties
# ----------------------------------------------------------------------
def _base_spec(**changes) -> ScenarioSpec:
    fields = dict(
        name="base",
        stack="chaos",
        topology=None,
        params={"config": "pbft"},
        workload=None,
        faults={"palette": ["crash", "delay"], "max_actions": 2},
        scale={"ops": 8, "settle_ms": 22000.0},
        metrics=["campaign_fingerprint"],
    )
    fields.update(changes)
    return ScenarioSpec.of(**fields)


def test_spec_fingerprint_ignores_dict_ordering():
    a = _base_spec(scale={"ops": 8, "settle_ms": 22000.0})
    b = _base_spec(scale={"settle_ms": 22000.0, "ops": 8})
    assert a.fingerprint() == b.fingerprint()


def test_renaming_a_scenario_keeps_its_fingerprint():
    """The name is display identity, not content identity."""
    assert _base_spec().fingerprint() == _base_spec(name="renamed").fingerprint()


#: one mutation per ScenarioSpec content field; each must move the
#: fingerprint (and therefore miss the cache).
MUTATIONS = {
    "stack": dict(stack="overload"),
    "topology": dict(
        topology={"regions": ["virginia", "oregon", "ireland", "tokyo"]}
    ),
    "params": dict(params={"config": "raft"}),
    "workload": dict(workload={"kind": "flash-plan", "sessions": 4}),
    "faults-palette-order": dict(faults={"palette": ["delay", "crash"], "max_actions": 2}),
    "faults-budget": dict(faults={"palette": ["crash", "delay"], "max_actions": 3}),
    "scale": dict(scale={"ops": 9, "settle_ms": 22000.0}),
    "metrics": dict(metrics=["campaign_fingerprint", "events"]),
}


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_single_field_change_moves_fingerprint_and_misses_cache(field):
    base = _base_spec()
    mutated = _base_spec(**MUTATIONS[field])
    assert base.fingerprint() != mutated.fingerprint(), field

    cache = BuildCache()
    first = cache.get_or_build("probe", base.fingerprint(), lambda: object())
    again = cache.get_or_build("probe", base.fingerprint(), lambda: object())
    other = cache.get_or_build("probe", mutated.fingerprint(), lambda: object())
    assert first is again, "identical specs must share the cached instance"
    assert other is not first, "a changed field must be a cache miss"
    assert cache.stats() == {"hits": 1, "misses": 2, "entries": 2}


def test_fragment_fingerprints_isolate_their_fragment():
    base = _base_spec()
    rescaled = _base_spec(scale={"ops": 9, "settle_ms": 22000.0})
    # The workload/faults fragments are untouched...
    assert base.workload_fingerprint() == rescaled.workload_fingerprint()
    assert base.faults_fingerprint() == rescaled.faults_fingerprint()
    # ...while the scale fragment (and the whole spec) moved.
    assert base.scale_fingerprint() != rescaled.scale_fingerprint()
    assert base.fingerprint() != rescaled.fingerprint()


# ----------------------------------------------------------------------
# process-restart stability
# ----------------------------------------------------------------------
_RESTART_SCRIPT = """
from repro.scenarios import ScenarioSpec, structural_fingerprint
spec = ScenarioSpec.of(
    name="restart-probe",
    stack="chaos",
    params={"config": "pbft"},
    faults={"palette": ["crash", "delay"], "max_actions": 2},
    scale={"ops": 8, "settle_ms": 22000.0},
)
print(spec.fingerprint())
print(structural_fingerprint({"b": [1, 2], "a": {"nested", "set"}}))
"""


def _fingerprints_in_subprocess(hashseed: str):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC
    output = subprocess.run(
        [sys.executable, "-c", _RESTART_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return output.stdout.split()


def test_fingerprints_survive_process_restarts():
    """Fresh interpreters with different hash seeds agree exactly."""
    first = _fingerprints_in_subprocess("0")
    second = _fingerprints_in_subprocess("424242")
    assert first == second
    # ...and agree with this process too.
    spec = ScenarioSpec.of(
        name="restart-probe",
        stack="chaos",
        params={"config": "pbft"},
        faults={"palette": ["crash", "delay"], "max_actions": 2},
        scale={"ops": 8, "settle_ms": 22000.0},
    )
    assert first[0] == spec.fingerprint()
