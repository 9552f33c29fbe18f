"""Safety and liveness invariant checkers for chaos campaigns.

Checkers are pure functions over harness-collected evidence; each returns
a list of human-readable violation strings (empty = invariant holds).
They are deliberately paranoid and deliberately *testable*: the mutation
tests in ``tests/test_chaos_invariants.py`` feed them deliberately broken
evidence and assert they scream, so a green campaign can't be green by
vacuity.

Safety
------
* :func:`check_sequence_agreement` — no two honest replicas decide
  different payloads for the same sequence number.
* :func:`check_exactly_once` — no payload is delivered twice in one
  replica's stream.
* :func:`check_journal_agreement` — execution replicas of one group apply
  pairwise prefix-consistent operation sequences.
* :func:`check_client_fifo` — per-client results arrive in issue order.

Liveness
--------
* :func:`check_completion` — everything issued before the fault horizon
  is decided/answered once faults healed (the paper's adaptivity claim:
  Spider recovers, it does not just survive).

Recovery-aware variants
-----------------------
A replica that crash/recovered and rejoined through checkpoint adoption
never re-applies the operations the checkpoint covers, so the two
journal-shaped checks above are respectively too strong and too weak for
it.  The pair below expresses the symmetric crash/recovery contract:

* :func:`check_journal_subsequence` — whatever a recovered replica *did*
  apply must appear in the canonical order (safety: skipping is legal,
  reordering or inventing is not).
* :func:`check_state_completion` — the recovered replica's final
  application state must reflect every expected write (liveness: the
  adopted checkpoint carries the effects of everything it skipped).
* :func:`check_recovered_frontier` — once faults healed, every replica
  the fault budget obliges to recover must stand at the group's delivery
  frontier (the strongest recovery claim: full checkpoint install plus
  suffix replay actually *finished*, not merely resumed).
* :func:`check_views_converged` — once faults healed, every up replica
  of a view-based agreement group sits in the group's view and is not in
  a view change (a replica alone in a view change casts no votes, so the
  group silently runs without its fault margin).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "check_sequence_agreement",
    "check_exactly_once",
    "check_journal_agreement",
    "check_journal_subsequence",
    "check_client_fifo",
    "check_completion",
    "check_state_completion",
    "check_recovered_frontier",
    "check_views_converged",
    "check_reshard_handover",
    "INVARIANTS",
    "resolve_invariants",
]


def check_sequence_agreement(
    delivered: Dict[str, Sequence[Tuple[int, Any]]],
    honest: Iterable[str],
) -> List[str]:
    """No two honest replicas may deliver different payloads at one seq.

    ``delivered`` maps replica name -> [(seq, payload), ...] in delivery
    order.  Crashed replicas stay honest: whatever they delivered before
    crashing must agree with everyone else.
    """
    violations: List[str] = []
    canonical: Dict[int, Tuple[str, str]] = {}
    for name in sorted(honest):
        for seq, payload in delivered.get(name, ()):
            key = repr(payload)
            previous = canonical.get(seq)
            if previous is None:
                canonical[seq] = (name, key)
            elif previous[1] != key:
                violations.append(
                    f"safety/agreement: seq {seq} decided as {previous[1]} at "
                    f"{previous[0]} but {key} at {name}"
                )
    return violations


def check_exactly_once(
    delivered: Dict[str, Sequence[Any]],
    honest: Iterable[str],
) -> List[str]:
    """No honest replica may deliver the same payload twice.

    ``delivered`` maps replica name -> [payload, ...] (batches expanded,
    no-ops dropped by the caller).
    """
    violations: List[str] = []
    for name in sorted(honest):
        seen: Dict[str, int] = {}
        for payload in delivered.get(name, ()):
            key = repr(payload)
            seen[key] = seen.get(key, 0) + 1
        for key, times in seen.items():
            if times > 1:
                violations.append(
                    f"safety/exactly-once: {name} delivered {key} {times} times"
                )
    return violations


def check_journal_agreement(
    journals: Dict[str, Sequence[Any]],
    honest: Iterable[str],
) -> List[str]:
    """Honest replicas of one group must apply prefix-consistent journals.

    Trailing replicas may be behind (shorter journal), but where two
    journals overlap they must be identical element-wise.
    """
    violations: List[str] = []
    names = sorted(n for n in honest if n in journals)
    for index, name_a in enumerate(names):
        journal_a = journals[name_a]
        for name_b in names[index + 1 :]:
            journal_b = journals[name_b]
            overlap = min(len(journal_a), len(journal_b))
            for position in range(overlap):
                if journal_a[position] != journal_b[position]:
                    violations.append(
                        "safety/journal: "
                        f"{name_a}[{position}]={journal_a[position]!r} != "
                        f"{name_b}[{position}]={journal_b[position]!r}"
                    )
                    break  # first divergence per pair is enough
    return violations


def check_journal_subsequence(
    reference: Sequence[Any],
    journals: Dict[str, Sequence[Any]],
    where: str = "recovered replica",
) -> List[str]:
    """Each journal must be an order-preserving subsequence of ``reference``.

    The safety contract for replicas that rejoined via checkpoint
    adoption: they may have *skipped* checkpoint-covered operations, but
    everything they did apply must occur in the canonical order, with no
    inversions and nothing the reference never applied.  ``reference`` is
    typically the longest journal of a never-crashed group member.
    """
    violations: List[str] = []
    reference_keys = [repr(item) for item in reference]
    for name in sorted(journals):
        cursor = 0
        for position, item in enumerate(journals[name]):
            key = repr(item)
            while cursor < len(reference_keys) and reference_keys[cursor] != key:
                cursor += 1
            if cursor >= len(reference_keys):
                violations.append(
                    f"safety/journal-subsequence: {where} {name}[{position}]="
                    f"{key} is out of order or unknown to the reference journal"
                )
                break
            cursor += 1
    return violations


def check_client_fifo(results: Dict[str, Sequence[Tuple[int, Any]]]) -> List[str]:
    """Per-client results must complete in issue order (strictly rising)."""
    violations: List[str] = []
    for client, completions in sorted(results.items()):
        indices = [index for index, _ in completions]
        if indices != sorted(indices):
            violations.append(
                f"safety/fifo: client {client} completed out of order: {indices}"
            )
        if len(set(indices)) != len(indices):
            violations.append(
                f"safety/fifo: client {client} completed a request twice: {indices}"
            )
    return violations


def check_completion(
    expected: Iterable[Any],
    completed_by: Dict[str, Sequence[Any]],
    where: str = "replica",
) -> List[str]:
    """Everything in ``expected`` must appear at every observer.

    ``completed_by`` maps observer name -> delivered/answered payloads.
    Callers restrict the observers to ones the fault budget obliges to
    recover (e.g. never-crashed honest replicas) and only call this after
    every fault window ended plus a settle allowance.
    """
    violations: List[str] = []
    expected_keys = [repr(item) for item in expected]
    for name in sorted(completed_by):
        have = {repr(item) for item in completed_by[name]}
        missing = [key for key in expected_keys if key not in have]
        if missing:
            shown = ", ".join(missing[:3])
            more = f" (+{len(missing) - 3} more)" if len(missing) > 3 else ""
            violations.append(
                f"liveness/completion: {where} {name} still missing "
                f"{len(missing)} item(s) after heal: {shown}{more}"
            )
    return violations


def check_recovered_frontier(
    frontiers: Dict[str, int],
    obligated: Optional[Iterable[str]] = None,
    where: str = "replica",
) -> List[str]:
    """Obligated replicas must stand at the group's delivery frontier.

    ``frontiers`` maps replica name -> last delivered sequence number at
    the end of the run; the frontier is the maximum over *all* replicas.
    ``obligated`` names the replicas the fault budget requires to have
    fully recovered by then (default: everyone) — typically the replicas
    that crashed, were wiped, or rejoined during the campaign, called
    after every fault window healed plus a settle allowance.  Trailing
    the frontier means recovery stalled mid-way: a checkpoint was
    installed but the suffix replay never finished, or the replica wedged
    waiting for state a peer stopped offering.
    """
    violations: List[str] = []
    if not frontiers:
        return violations
    frontier = max(frontiers.values())
    names = sorted(frontiers) if obligated is None else sorted(obligated)
    for name in names:
        reached = frontiers.get(name)
        if reached is None:
            violations.append(
                f"liveness/frontier: {where} {name} reported no frontier"
            )
        elif reached != frontier:
            violations.append(
                f"liveness/frontier: {where} {name} stopped at {reached}, "
                f"group frontier is {frontier}"
            )
    return violations


def check_views_converged(
    views: Dict[str, Tuple[int, bool]],
    where: str = "replica",
) -> List[str]:
    """Every up replica ends in its group's view, not in a view change.

    ``views`` maps each replica that is up at the end of the run to its
    ``(view, in_view_change)``.  The group's view is the one more than
    half of them hold; without such a view every replica is reported.
    Called after every fault window healed plus a settle allowance: by
    then a view change that was going to complete has completed, and a
    replica left ahead of the group (or still changing views) never
    votes again, which takes the group's fault margin without a trace.
    """
    violations: List[str] = []
    counts: Dict[int, int] = {}
    for view, _ in views.values():
        counts[view] = counts.get(view, 0) + 1
    majority = [view for view, count in counts.items() if 2 * count > len(views)]
    group_view = majority[0] if majority else None
    for name in sorted(views):
        view, changing = views[name]
        if view != group_view or changing:
            shown = "no majority view" if group_view is None else f"group view {group_view}"
            state = ", in a view change" if changing else ""
            violations.append(
                f"views/converged: {where} {name} ends in view {view}{state} ({shown})"
            )
    return violations


def check_state_completion(
    expected: Dict[Any, Any],
    states: Dict[str, Dict[Any, Any]],
    where: str = "replica",
) -> List[str]:
    """Every observer's final state must map each expected key to its value.

    The completion-after-heal obligation for *recovered* replicas: a
    checkpoint-adopting rejoiner never re-applies the skipped operations
    (so journal completion cannot hold), but the adopted state carries
    their effects — once faults healed and the replica caught up to the
    live frontier, its application state must reflect every write.
    """
    violations: List[str] = []
    for name in sorted(states):
        state = states[name]
        missing = [
            key for key, value in expected.items() if state.get(key) != value
        ]
        if missing:
            shown = ", ".join(repr(key) for key in missing[:3])
            more = f" (+{len(missing) - 3} more)" if len(missing) > 3 else ""
            violations.append(
                f"liveness/state-completion: {where} {name} state lacks "
                f"{len(missing)} expected entr(ies) after heal: {shown}{more}"
            )
    return violations


def check_reshard_handover(
    expected: Dict[Any, Sequence[Any]],
    src_journals: Dict[str, Sequence[Any]],
    dst_journals: Dict[str, Sequence[Any]],
    src_states: Dict[str, Dict[Any, Any]],
) -> List[str]:
    """Every migrated key's write history must split cleanly across the cut.

    ``expected`` maps each migrated key to its full value sequence in
    issue order.  ``src_journals``/``dst_journals`` are the put journals
    of never-crashed replicas on the source and destination shards; the
    longest journal on each side is the canonical record of what that
    side executed.  The obligation: the source-side puts followed by the
    destination-side puts reproduce the issued sequence **exactly** —
    nothing lost in transfer, nothing executed twice (once per side),
    no reordering across the ownership change.  ``src_states`` are the
    source replicas' final application states, which must have dropped
    every migrated key — a leftover copy would let a stale read answer
    from the wrong side of the cut.
    """
    violations: List[str] = []

    def puts_of(journals: Dict[str, Sequence[Any]], key: Any) -> List[Any]:
        if not journals:
            return []
        reference = max(journals.values(), key=len)
        return [op[2] for op in reference if op[0] == "put" and op[1] == key]

    for key in sorted(expected):
        want = list(expected[key])
        src_seq = puts_of(src_journals, key)
        dst_seq = puts_of(dst_journals, key)
        if src_seq + dst_seq != want:
            violations.append(
                "safety/reshard-handover: migrated key "
                f"{key!r} split src={src_seq} + dst={dst_seq}, "
                f"expected {want}"
            )
    for name in sorted(src_states):
        leftover = sorted(key for key in expected if key in src_states[name])
        if leftover:
            violations.append(
                f"safety/reshard-handover: source replica {name} still "
                f"holds migrated key(s) {leftover} after the drop"
            )
    return violations


# ----------------------------------------------------------------------
# Name registry (scenario specs refer to checkers by these names)
# ----------------------------------------------------------------------
#: Declarative names for the checkers above: every row of the chaos table
#: declares its obligations (``ChaosCase.invariants``) in this vocabulary,
#: and a cell's result reports them under the same names.
INVARIANTS: Dict[str, Callable[..., List[str]]] = {
    "sequence-agreement": check_sequence_agreement,
    "exactly-once": check_exactly_once,
    "journal-agreement": check_journal_agreement,
    "journal-subsequence": check_journal_subsequence,
    "client-fifo": check_client_fifo,
    "completion": check_completion,
    "state-completion": check_state_completion,
    "recovered-frontier": check_recovered_frontier,
    "views-converged": check_views_converged,
    "reshard-handover": check_reshard_handover,
}


def resolve_invariants(names: Iterable[str]) -> Tuple[Callable[..., List[str]], ...]:
    """Compile invariant names into the checker tuple they denote.

    Raises :class:`~repro.errors.ConfigurationError` on an unknown name —
    before any node exists, like every other spec validation.
    """
    from repro.errors import ConfigurationError

    checkers = []
    for name in names:
        try:
            checkers.append(INVARIANTS[name])
        except KeyError:
            raise ConfigurationError(
                f"unknown invariant {name!r}; known: {sorted(INVARIANTS)}"
            ) from None
    return tuple(checkers)
