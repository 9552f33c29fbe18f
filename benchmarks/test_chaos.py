"""Chaos campaign sweep: the pinned suites against every stack.

Acceptance sweep for the chaos subsystem, driven by
``repro.chaos.SUITES["chaos"]``: >= 50 seeds spread across the fourteen
stack configurations (full Spider, PBFT-only, Raft-only, IRMC-RC,
IRMC-SC, the targeted recovery stacks ``pbft-vc-crash`` and
``spider-cp-crash``, the two-shard isolation stack ``spider-shard``, the
live-resharding stack ``spider-reshard`` (crash/wipe/partition across a
range handover, audited by the ``reshard-handover`` cross-cut
invariant), and the adversary-and-environment palette stacks
``pbft-wipe``, ``raft-skew``, ``spider-disk``, ``irmc-equivocate`` and
``irmc-sc-wipe`` — durable-state loss, checkpoint corruption, clock
skew and authenticated equivocation), every safety and liveness
invariant green — crash/recovered replicas owe completion-after-heal
and wiped replicas owe the exact recovered frontier — plus the
byte-parity guarantees that (a) a no-fault campaign run is
indistinguishable from the same workload without the chaos layer loaded
and (b) every cell of this suite and of ``SUITES["reshard"]`` equals its
record in ``tests/chaos_golden.json`` field for field (a moved cell
leaves its expected/actual pair in
``benchmarks/CHAOS_golden_mismatch.json``, uploaded by CI as well).

Any failure is shrunk to a minimal schedule and written to
``benchmarks/CHAOS_failures.json`` (CI uploads it as an artifact); the
printed snippet is ready to be checked in as a regression test in
``tests/test_chaos_regressions.py``.

Run it (``python -m repro.experiments chaos`` prints the sweep table)::

    PYTHONPATH=src python -m pytest -q benchmarks/test_chaos.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.chaos import SEEDS, SUITES, chaos_case, failure_record

from tests.chaos_golden import MISMATCH_PATH, golden_cells, mismatches

FAILURES_PATH = pathlib.Path(__file__).parent / "CHAOS_failures.json"
CONFIGS = sorted(SUITES["chaos"])


@pytest.fixture(autouse=True, scope="module")
def _fresh_failure_artifact():
    """Drop any stale artifact so a green run leaves no file behind and a
    failing run's report contains only this run's schedules."""
    for path in (FAILURES_PATH, MISMATCH_PATH):
        if path.exists():
            path.unlink()
    yield


@pytest.mark.parametrize("config", CONFIGS)
def test_campaign_sweep(config):
    cells = golden_cells("chaos", [config])
    moved = mismatches("chaos", cells)  # first: leaves its artifact either way
    failures = [failure_record(cell) for cell in cells if not cell["ok"]]
    if failures:
        existing = []
        if FAILURES_PATH.exists():
            existing = json.loads(FAILURES_PATH.read_text())
        FAILURES_PATH.write_text(json.dumps(existing + failures, indent=2, default=repr))
        detail = "\n\n".join(f.get("snippet", f.get("error", "")) for f in failures)
        pytest.fail(
            f"{config}: {len(failures)}/{len(SEEDS)} seeds violated "
            f"invariants; minimized repros in {FAILURES_PATH}:\n{detail}"
        )
    # The sweep must actually inject faults — an accidentally empty
    # palette would make the invariants vacuously green.
    actions_total = sum(cell["n_actions"] for cell in cells)
    assert actions_total >= len(SEEDS), (
        f"{config}: only {actions_total} fault actions over "
        f"{len(SEEDS)} seeds — campaign is not exercising faults"
    )
    assert moved == [], f"cells moved off the golden record, see {MISMATCH_PATH}"


@pytest.mark.parametrize("scenario", sorted(SUITES["reshard"]))
def test_reshard_suite_matches_golden(scenario):
    """All 12 seeds of each ``SUITES["reshard"]`` scenario, field for field."""
    moved = mismatches("reshard", golden_cells("reshard", [scenario]))
    assert moved == [], f"cells moved off the golden record, see {MISMATCH_PATH}"


@pytest.mark.parametrize("config", CONFIGS)
def test_no_fault_campaign_is_byte_identical(config):
    """Chaos layer armed with zero faults == chaos layer absent."""
    case = chaos_case(config)
    wrapped = case.run(SEEDS[0], actions=[])
    bare = case.run(SEEDS[0], actions=[], chaos=False)
    assert wrapped.ok and bare.ok
    assert wrapped.stats == bare.stats
    assert wrapped.fingerprint() == bare.fingerprint()
