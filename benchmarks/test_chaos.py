"""Chaos campaign sweep: the declarative suite against every stack.

Acceptance sweep for the chaos subsystem, driven by the committed
``suites/chaos.yaml``: >= 50 seeds spread across the fourteen stack
configurations (full Spider, PBFT-only, Raft-only, IRMC-RC, IRMC-SC,
the targeted recovery stacks ``pbft-vc-crash`` and ``spider-cp-crash``,
the two-shard isolation stack ``spider-shard``, the live-resharding
stack ``spider-reshard`` (crash/wipe/partition across a range
handover, audited by the ``reshard-handover`` cross-cut invariant),
and the adversary-and-environment palette stacks ``pbft-wipe``,
``raft-skew``, ``spider-disk``, ``irmc-equivocate`` and
``irmc-sc-wipe`` — durable-state loss, checkpoint corruption, clock
skew and authenticated equivocation), every safety and liveness
invariant green — crash/
recovered replicas owe completion-after-heal and wiped replicas owe the
exact recovered frontier — plus the byte-parity guarantees that (a) a
no-fault campaign run is indistinguishable from the same workload
without the chaos layer loaded and (b) every cell of this suite and of
``suites/reshard.yaml`` equals its record in ``tests/chaos_golden.json``
field for field (a moved cell leaves its expected/actual pair in
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

from repro.chaos import chaos_case, failure_record
from repro.scenarios import BuildCache, load_suite, run_matrix

from tests.chaos_golden import MISMATCH_PATH, mismatches, run_cells

FAILURES_PATH = pathlib.Path(__file__).parent / "CHAOS_failures.json"
SUITE_PATH = pathlib.Path(__file__).parent.parent / "suites" / "chaos.yaml"

#: loaded (and fully validated) once per process — configuration
#: mistakes in the suite file fail collection, before any node exists.
SUITE = load_suite(SUITE_PATH)

#: one shared build cache across the whole sweep: each config's case
#: is resolved once and reused for all of its seeds.
CACHE = BuildCache()

SEEDS_PER_CONFIG = len(SUITE.seeds)
SEED_BASE = SUITE.seeds[0]
CONFIGS = sorted(spec.name for spec in SUITE.scenarios)


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
    cells = run_matrix([SUITE.scenario(config)], SUITE.seeds, CACHE)
    moved = mismatches("chaos", cells)  # first: leaves its artifact either way
    failures = [
        {"config": config, "seed": cell.seed, "error": cell.error}
        if cell.error is not None
        else failure_record(config, cell)
        for cell in cells
        if not cell.ok
    ]
    if failures:
        existing = []
        if FAILURES_PATH.exists():
            existing = json.loads(FAILURES_PATH.read_text())
        FAILURES_PATH.write_text(json.dumps(existing + failures, indent=2, default=repr))
        detail = "\n\n".join(f.get("snippet", f.get("error", "")) for f in failures)
        pytest.fail(
            f"{config}: {len(failures)}/{SEEDS_PER_CONFIG} seeds violated "
            f"invariants; minimized repros in {FAILURES_PATH}:\n{detail}"
        )
    # The sweep must actually inject faults — an accidentally empty
    # palette would make the invariants vacuously green.
    actions_total = sum(cell.stats["n_actions"] for cell in cells)
    assert actions_total >= SEEDS_PER_CONFIG, (
        f"{config}: only {actions_total} fault actions over "
        f"{SEEDS_PER_CONFIG} seeds — campaign is not exercising faults"
    )
    assert moved == [], f"cells moved off the golden record, see {MISMATCH_PATH}"


@pytest.mark.parametrize("scenario", ["spider-reshard", "spider-reshard-double"])
def test_reshard_suite_matches_golden(scenario):
    """All 12 seeds of each ``suites/reshard.yaml`` scenario, field for field."""
    moved = mismatches("reshard", run_cells("reshard", scenario, cache=CACHE))
    assert moved == [], f"cells moved off the golden record, see {MISMATCH_PATH}"


def test_suite_cache_reuses_builds():
    """The suite runner demonstrably reuses cached constructions."""
    cache = BuildCache()
    spec = SUITE.scenario("pbft")
    run_matrix([spec], SUITE.seeds[:2], cache)
    # The second seed reuses the resolved case; its schedule is its own.
    assert cache.stats() == {"hits": 1, "misses": 3, "entries": 3}


@pytest.mark.parametrize("config", CONFIGS)
def test_no_fault_campaign_is_byte_identical(config):
    """Chaos layer armed with zero faults == chaos layer absent."""
    case = chaos_case(config)
    wrapped = case.run(SEED_BASE, actions=[])
    bare = case.run(SEED_BASE, actions=[], chaos=False)
    assert wrapped.ok and bare.ok
    assert wrapped.stats == bare.stats
    assert wrapped.fingerprint() == bare.fingerprint()
