"""Structural fingerprints: stability, canonicalisation, content identity.

The fingerprint is the determinism identity of a spec, and the key a
generator of scenarios deduplicates by.  These tests pin the properties
that make it safe to use as either:

* construction-order independence — dict/list insertion order and set
  ordering never change the fingerprint (sequence order *does*: it is
  semantic, e.g. fault palettes);
* process-restart stability — no ``id()``, no hash randomisation: the
  same spec fingerprints identically across interpreter runs with
  different ``PYTHONHASHSEED``;
* content identity — identical specs fingerprint identically; any
  single field change produces a distinct fingerprint (table-driven over
  every ScenarioSpec content field).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.scenarios import ScenarioSpec, canonical_repr, structural_fingerprint

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
_TOPOLOGY = {
    "shards": [{"shard_id": "s0", "groups": [{"group_id": "g0", "region": "virginia"}]}],
    "config": {},
}
_FLASH = {
    "kind": "flash-plan", "sessions": 4, "n_keys": 8, "skew": 0.99,
    "write_fraction": 0.5, "base_rate": 100.0, "flash_rate": 500.0,
    "flash_start_ms": 200.0, "flash_end_ms": 400.0, "duration_ms": 600.0,
}


def _base_spec(**changes) -> ScenarioSpec:
    fields = dict(
        name="base",
        stack="overload",
        topology=_TOPOLOGY,
        workload=_FLASH,
        scale={"cost_scale": 10.0, "drain_ms": 1000.0},
    )
    fields.update(changes)
    return ScenarioSpec.of(**fields)


def test_spec_fingerprint_ignores_dict_ordering():
    a = _base_spec(scale={"cost_scale": 10.0, "drain_ms": 1000.0})
    b = _base_spec(scale={"drain_ms": 1000.0, "cost_scale": 10.0})
    assert a.fingerprint() == b.fingerprint()


def test_renaming_a_scenario_keeps_its_fingerprint():
    """The name is display identity, not content identity."""
    assert _base_spec().fingerprint() == _base_spec(name="renamed").fingerprint()


#: one mutation per ScenarioSpec content field; each must move the
#: fingerprint (and so count as a new scenario to a deduplicating caller).
MUTATIONS = {
    "stack": dict(stack="chaos"),
    "topology": dict(
        topology={**_TOPOLOGY, "shards": [
            {"shard_id": "s0", "groups": [{"group_id": "g0", "region": "tokyo"}]}
        ]}
    ),
    "workload": dict(workload={**_FLASH, "sessions": 8}),
    "scale": dict(scale={"cost_scale": 10.0, "drain_ms": 2000.0}),
}


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_single_field_change_moves_fingerprint_and_misses_cache(field):
    base = _base_spec()
    mutated = _base_spec(**MUTATIONS[field])
    assert base.fingerprint() != mutated.fingerprint(), field
    assert base.fingerprint() == _base_spec().fingerprint(), "a rebuilt spec is the same one"


# ----------------------------------------------------------------------
# process-restart stability
# ----------------------------------------------------------------------
_RESTART_SCRIPT = """
from repro.scenarios import ScenarioSpec, structural_fingerprint
spec = ScenarioSpec.of(
    name="restart-probe",
    stack="overload",
    workload={"kind": "flash-plan", "sessions": 4, "skew": 0.99},
    scale={"cost_scale": 10.0, "drain_ms": 1000.0},
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
        stack="overload",
        workload={"kind": "flash-plan", "sessions": 4, "skew": 0.99},
        scale={"cost_scale": 10.0, "drain_ms": 1000.0},
    )
    assert first[0] == spec.fingerprint()
