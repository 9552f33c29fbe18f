"""Seeded generation of fault schedules.

``generate_schedule`` is a pure function of ``(name, seed, profile)``:
it owns a private ``random.Random(f"chaos:{seed}:{name}")`` (the repo's
per-driver RNG convention) and never touches the simulator RNG, so the
same seed always produces the same campaign and arming a campaign never
perturbs the workload's own randomness.

The profile encodes what a stack can tolerate:

* node-targeted faults only ever hit the profile's ``victims`` — the
  harness picks at most its fault budget (``f``) of them per run, so a
  generated schedule never exceeds the protocol's fault assumption;
* every window ends by ``horizon_ms`` (partitions heal, behaviours
  uninstall, crashed nodes recover), which is what makes a *liveness*
  invariant meaningful: after the horizon the system must catch up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.chaos.actions import FaultAction, slot_kind

__all__ = ["ChaosProfile", "generate_schedule", "format_schedule"]


@dataclass
class ChaosProfile:
    """What faults a stack harness permits and when."""

    #: node-targeted fault kinds the stack tolerates (subset of NODE_KINDS)
    node_kinds: Tuple[str, ...]
    #: nodes fault-eligible this run (pre-trimmed to the fault budget)
    victims: Tuple[str, ...]
    #: earliest fault start (let the system boot/elect first)
    min_start_ms: float
    #: all fault windows end by here
    horizon_ms: float
    #: regions eligible for partitioning (empty: single-region stack)
    regions: Tuple[str, ...] = ()
    #: directed node pairs eligible for link-level faults
    links: Tuple[Tuple[str, str], ...] = ()
    #: how many windows one schedule may hold
    max_actions: int = 5


#: per-kind magnitude range a window's ``param`` is drawn from.
_PARAM_RANGES: Dict[str, Tuple[float, float]] = {
    "delay": (20.0, 400.0),
    "drop": (0.05, 0.5),
    "duplicate": (0.1, 0.5),
    "link_delay": (20.0, 400.0),
    "link_flaky": (0.05, 0.3),
    # Clock rate: 0.5 (slow, timers fire late) to 2.0 (fast, fire early).
    "skew": (0.5, 2.0),
    # Probability that any one proposal is equivocated on.
    "equivocate": (0.5, 1.0),
}


def generate_schedule(name: str, seed: int, profile: ChaosProfile) -> List[FaultAction]:
    """Deterministically derive a fault schedule for ``(name, seed)``."""
    rng = random.Random(f"chaos:{seed}:{name}")
    choices: List[Tuple[str, str]] = []
    for kind in profile.node_kinds:
        for victim in profile.victims:
            choices.append((kind, victim))
    for region in profile.regions:
        choices.append(("partition", region))
    for src, dst in profile.links:
        choices.append(("block_link", f"{src}->{dst}"))
        choices.append(("link_delay", f"{src}->{dst}"))
        choices.append(("link_flaky", f"{src}->{dst}"))
    if not choices:
        return []
    count = rng.randint(1, profile.max_actions)
    span = profile.horizon_ms - profile.min_start_ms
    actions: List[FaultAction] = []
    occupied: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for _ in range(count):
        kind, target = choices[rng.randrange(len(choices))]
        start = profile.min_start_ms + rng.random() * span * 0.6
        duration = max(50.0, rng.random() * (profile.horizon_ms - start))
        end = min(start + duration, profile.horizon_ms)
        slots = occupied.setdefault((slot_kind(kind), target), [])
        if any(not (end <= s or start >= e) for s, e in slots):
            continue
        slots.append((start, end))
        actions.append(
            FaultAction(
                kind=kind,
                target=target,
                start_ms=round(start, 3),
                duration_ms=round(end - start, 3),
                param=_param_for(kind, rng),
            )
        )
    actions.sort(key=lambda a: (a.start_ms, a.kind, a.target))
    return actions


def _param_for(kind: str, rng: random.Random) -> float:
    bounds = _PARAM_RANGES.get(kind)
    if bounds is None:
        # Kinds without a magnitude still consume one draw, so adding a
        # parameterised kind later does not reshuffle earlier schedules.
        rng.random()
        return 0.0
    low, high = bounds
    return round(low + rng.random() * (high - low), 4)


def format_schedule(actions: Sequence[FaultAction]) -> str:
    """A paste-able literal of the schedule, for regression tests."""
    lines = ["["]
    for action in actions:
        lines.append(
            f"    FaultAction(kind={action.kind!r}, target={action.target!r}, "
            f"start_ms={action.start_ms}, duration_ms={action.duration_ms}, "
            f"param={action.param}),"
        )
    lines.append("]")
    return "\n".join(lines)
