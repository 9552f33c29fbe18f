"""Deterministic chaos campaigns against full protocol stacks.

The campaign turns "as many fault scenarios as you can imagine" into a
seeded pipeline::

    from repro.chaos import chaos_case, shrink_schedule

    case = chaos_case("spider")                      # one row of CASES
    result = case.run(seed=7)                        # one seeded run
    if not result.ok:
        minimal = shrink_schedule(case, 7)
        # -> a FaultAction literal to check in as a regression test

``benchmarks/test_chaos.py`` pins the sweep in CI.

Public API in one breath
------------------------
* :class:`FaultAction` — one declarative fault window ``(kind, target,
  start_ms, duration_ms, param)``.  Frozen dataclass with scalar fields,
  so a failing schedule prints as a paste-able literal.
* :class:`ChaosEngine` — schedules apply/undo events for a list of
  actions on a live simulation.  **Undo semantics**: every applied action
  registers exactly one undo closure, run at ``end_ms`` (or by
  :meth:`~ChaosEngine.undo_all`, the end-of-run safety net).  Undo goes
  through reversible :class:`~repro.faults.behaviours.Behaviour` handles
  and the network's compositional fault API, so overlapping windows do
  not clobber each other — with two deliberate subtleties: overlapping
  *identical* windows on one target are rejected at generation time (a
  ``recover()`` while another crash window runs would be ambiguous), and
  a link-mod undo only clears the mod it installed itself.  ``crash``
  undo calls ``node.recover()``, which since the recovery subsystem also
  fires the node's registered recovery hooks (driver-process respawn,
  PBFT state transfer, timer re-arm) — see ``docs/architecture.md``.
* :class:`ChaosProfile` / :func:`generate_schedule` — what a stack
  tolerates, and the seeded draw of a schedule inside that budget.
* :data:`CASES` / :func:`chaos_case` — the thirteen configurations as
  one table of frozen :class:`ChaosCase` records (a stack rig from
  :mod:`repro.chaos.rigs`, its knobs, its fault plan) and the one lookup
  that names a cell; ``chaos_case(name, **overrides).run(seed)`` is a
  pure function of its inputs, and an override the case does not declare
  is a :class:`~repro.errors.ConfigurationError`.
* :data:`SUITES` / :func:`run_cells` — the chaos and reshard suites as
  one more table (scenario -> case name and overrides) and the one loop
  that runs their ``(scenario, seed)`` cells, a raising cell recorded
  rather than fatal; ``benchmarks/BENCH_chaos.json`` pins every cell.
* :func:`check_*` — evidence-level invariant checkers (see
  :mod:`repro.chaos.invariants`); :func:`shrink_schedule` /
  :func:`failure_record` / :func:`repro_snippet` — ddmin minimisation,
  the failure artifact entry and regression snippets.
"""

from repro.chaos.actions import (
    ChaosEngine,
    FaultAction,
    NET_KINDS,
    NODE_KINDS,
    overlapping_windows,
)
from repro.chaos.cases import (
    CASES,
    SEEDS,
    SUITES,
    CampaignResult,
    ChaosCase,
    chaos_case,
    run_cells,
    suite_scenarios,
)
from repro.chaos.invariants import (
    INVARIANTS,
    check_client_fifo,
    check_completion,
    check_exactly_once,
    check_journal_agreement,
    check_recovered_frontier,
    check_reshard_handover,
    check_sequence_agreement,
    check_views_converged,
    resolve_invariants,
)
from repro.chaos.schedule import ChaosProfile, format_schedule, generate_schedule
from repro.chaos.shrink import failure_record, repro_snippet, shrink_schedule

__all__ = [
    "FaultAction",
    "ChaosEngine",
    "NODE_KINDS",
    "NET_KINDS",
    "ChaosProfile",
    "generate_schedule",
    "format_schedule",
    "overlapping_windows",
    "CampaignResult",
    "ChaosCase",
    "CASES",
    "chaos_case",
    "SEEDS",
    "SUITES",
    "run_cells",
    "suite_scenarios",
    "shrink_schedule",
    "failure_record",
    "repro_snippet",
    "INVARIANTS",
    "resolve_invariants",
    "check_sequence_agreement",
    "check_exactly_once",
    "check_journal_agreement",
    "check_client_fifo",
    "check_completion",
    "check_recovered_frontier",
    "check_views_converged",
    "check_reshard_handover",
]
