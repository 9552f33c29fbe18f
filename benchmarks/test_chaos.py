"""Chaos campaign sweep: the pinned suites against every stack.

Acceptance sweep for the chaos subsystem, driven by
``repro.chaos.SUITES["chaos"]``: >= 50 seeds spread across the thirteen
stack configurations (full Spider, PBFT-only, IRMC-RC, IRMC-SC, the
targeted recovery stacks ``pbft-vc-crash`` and ``spider-cp-crash``, the
two-shard isolation stack ``spider-shard``, the
live-resharding stack ``spider-reshard`` (crash/wipe/partition across a
range handover, audited by the ``reshard-handover`` cross-cut
invariant), and the adversary-and-environment palette stacks
``pbft-wipe``, ``pbft-skew``, ``spider-disk``, ``irmc-equivocate`` and
``irmc-sc-wipe`` — durable-state loss, checkpoint corruption, clock
skew and authenticated equivocation), every safety and liveness
invariant green — crash/recovered replicas owe completion-after-heal
and wiped replicas owe the exact recovered frontier — plus the
byte-parity guarantees that (a) a no-fault campaign run is
indistinguishable from the same workload without the chaos layer loaded
and (b) all 168 cells — 13 x 12 of this suite and the 12 of
``SUITES["reshard"]``'s two-handover scenario — equal their records in
``benchmarks/BENCH_chaos.json`` field for field (through
``records.mismatches``: a moved field is named by its path, e.g.
``chaos/chaos/spider/4/events``, and leaves its expected/actual pair in
``benchmarks/BENCH_mismatch.json``, uploaded by CI as well).

Any failure is shrunk to a minimal schedule and written to
``benchmarks/CHAOS_failures.json`` (CI uploads it as an artifact); the
printed snippet is ready to be checked in as a regression test in
``tests/test_chaos_regressions.py``.

Run it::

    PYTHONPATH=src python -m pytest -q benchmarks/test_chaos.py

Run directly to re-record ``BENCH_chaos.json`` (only for a change that
moves simulated results by design, in its own commit)::

    PYTHONPATH=src python benchmarks/test_chaos.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

import records
from repro.chaos import SEEDS, SUITES, chaos_case, failure_record

FAILURES_PATH = pathlib.Path(__file__).parent / "CHAOS_failures.json"
CONFIGS = sorted(SUITES["chaos"])


@pytest.fixture(autouse=True, scope="module")
def _fresh_failure_artifact():
    """Drop any stale artifact so a green run leaves no file behind and a
    failing run's report contains only this run's schedules."""
    if FAILURES_PATH.exists():
        FAILURES_PATH.unlink()
    yield


@pytest.mark.parametrize("config", CONFIGS)
def test_campaign_sweep(config):
    cells = records.chaos_cells("chaos", [config])
    # first: leaves its artifact either way
    moved = records.mismatches(f"chaos/chaos/{config}", records.chaos_record(cells))
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
    assert moved == [], f"{moved} moved off the record, see {records.MISMATCH_PATH}"


@pytest.mark.parametrize("scenario", sorted(SUITES["reshard"]))
def test_reshard_suite_matches_golden(scenario):
    """All 12 seeds of each ``SUITES["reshard"]`` scenario, field for field."""
    cells = records.chaos_cells("reshard", [scenario])
    moved = records.mismatches(f"chaos/reshard/{scenario}", records.chaos_record(cells))
    assert moved == [], f"{moved} moved off the record, see {records.MISMATCH_PATH}"


@pytest.mark.parametrize("config", CONFIGS)
def test_no_fault_campaign_is_byte_identical(config):
    """Chaos layer armed with zero faults == chaos layer absent."""
    case = chaos_case(config)
    wrapped = case.run(SEEDS[0], actions=[])
    bare = case.run(SEEDS[0], actions=[], chaos=False)
    assert wrapped.ok and bare.ok
    assert wrapped.stats == bare.stats
    assert wrapped.fingerprint() == bare.fingerprint()


if __name__ == "__main__":  # pragma: no cover - manual re-record
    golden = {
        suite: {
            scenario: records.chaos_record(records.chaos_cells(suite, [scenario]))
            for scenario in SUITES[suite]
        }
        for suite in SUITES
    }
    records.PATHS["chaos"].write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    n_cells = sum(len(seeds) for scenarios in golden.values() for seeds in scenarios.values())
    print(f"recorded {n_cells} cells")
