"""Shrink a failing chaos schedule to a minimal reproduction.

Greedy delta-debugging over the action list: repeatedly try dropping one
action; keep any subset that still violates an invariant.  The result is
the smallest action list (under single-removal) that still fails, plus a
paste-able regression-test snippet — the workflow is *sweep, shrink,
check the snippet in as a test, fix the bug, keep the test forever*.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.chaos.actions import FaultAction
from repro.chaos.cases import CASES, KNOBS, CampaignResult, ChaosCase, chaos_case
from repro.chaos.schedule import format_schedule

__all__ = ["shrink_schedule", "failure_record", "repro_snippet"]


def shrink_schedule(
    case: ChaosCase,
    seed: int,
    actions: Optional[Sequence[FaultAction]] = None,
    max_trials: int = 64,
) -> List[FaultAction]:
    """Minimize a failing schedule for ``(case, seed)``.

    Returns the shrunk action list; if the full schedule does not fail
    (flaky report), it is returned unchanged.
    """
    if actions is None:
        actions = case.run(seed).actions
    current = list(actions)
    if not case.run(seed, actions=current).violations:
        return current
    trials = 0
    improved = True
    while improved and trials < max_trials:
        improved = False
        for index in range(len(current)):
            trial = current[:index] + current[index + 1 :]
            trials += 1
            if case.run(seed, actions=trial).violations:
                current = trial
                improved = True
                break
            if trials >= max_trials:
                break
    return current


def failure_record(cell: Dict[str, Any]) -> Dict[str, Any]:
    """The failure-artifact entry of one failing cell record of
    :func:`~repro.chaos.run_cells`: what ran (its case and overrides),
    what broke, the shrunk schedule and its paste-able regression.  A
    cell that raised has nothing to shrink and keeps only its error."""
    if "error" in cell:
        return {"config": cell["config"], "seed": cell["seed"], "error": cell["error"]}
    case = chaos_case(cell["config"], **cell["overrides"])
    actions = [FaultAction(**action) for action in cell["schedule"]]
    minimal = shrink_schedule(case, cell["seed"], actions=actions)
    return {
        "config": cell["config"],
        "overrides": cell["overrides"],
        "seed": cell["seed"],
        "fingerprint": cell["campaign_fingerprint"],
        "violations": cell["violations"],
        "schedule": cell["schedule"],
        "minimized": [dict(vars(action)) for action in minimal],
        "snippet": repro_snippet(case, cell["seed"], minimal),
    }


def repro_snippet(case: ChaosCase, seed: int, actions: Sequence[FaultAction]) -> str:
    """A regression-test body replaying the minimized schedule on ``case``
    as it ran: the knobs in which it differs from its :data:`CASES` row
    are spelled out as overrides."""
    result: CampaignResult = case.run(seed, actions=list(actions))
    status = "FAILS" if result.violations else "passes"
    row = CASES[case.name]
    overrides = "".join(
        f", {knob}={getattr(case, knob)!r}"
        for knob in KNOBS
        if getattr(case, knob) != getattr(row, knob)
    )
    lines = [
        f"# chaos repro: config={case.name!r} seed={seed} ({status} at generation time)",
        "from repro.chaos import FaultAction, chaos_case",
        "",
        f"ACTIONS = {format_schedule(actions)}",
        "",
        "def test_minimized_chaos_repro():",
        f"    result = chaos_case({case.name!r}{overrides}).run({seed}, actions=ACTIONS)",
        "    assert result.violations == []",
    ]
    return "\n".join(lines)
