"""Mutation tests for the chaos invariant checkers.

The campaign is only as good as its referees: each test here deliberately
breaks an invariant — divergent decisions, duplicated deliveries, a
permanently partitioned deployment, an equivocating leader once the
quorum rule is sabotaged — and asserts the checkers report the violation.
If a checker rots into green-by-vacuity, this file goes red.
"""

from __future__ import annotations

from repro.chaos import (
    FaultAction,
    check_client_fifo,
    check_completion,
    check_exactly_once,
    check_journal_agreement,
    check_sequence_agreement,
    check_views_converged,
    chaos_case,
)
from repro.consensus.pbft.messages import PrePrepare
from repro.crypto.primitives import attach_auth, make_mac_vector
from repro.faults import Behaviour

from tests.conftest import Cluster
from tests.test_pbft import PbftHarness


class TestCheckerUnits:
    def test_sequence_agreement_flags_divergence(self):
        delivered = {
            "a": [(1, ("op", 1)), (2, ("op", 2))],
            "b": [(1, ("op", 1)), (2, ("EVIL", 2))],
        }
        violations = check_sequence_agreement(delivered, ["a", "b"])
        assert violations and "seq 2" in violations[0]

    def test_sequence_agreement_accepts_lag(self):
        delivered = {"a": [(1, "x"), (2, "y")], "b": [(1, "x")]}
        assert check_sequence_agreement(delivered, ["a", "b"]) == []

    def test_exactly_once_flags_duplicates(self):
        violations = check_exactly_once({"a": ["p", "q", "p"]}, ["a"])
        assert violations and "2 times" in violations[0]

    def test_journal_agreement_flags_first_divergence(self):
        journals = {
            "e0": [("put", "k", 1), ("put", "k", 2)],
            "e1": [("put", "k", 1), ("put", "FORGED", 2)],
        }
        violations = check_journal_agreement(journals, ["e0", "e1"])
        assert violations and "e0[1]" in violations[0]

    def test_journal_agreement_accepts_prefix_lag(self):
        journals = {"e0": [1, 2, 3], "e1": [1, 2]}
        assert check_journal_agreement(journals, ["e0", "e1"]) == []

    def test_client_fifo_flags_reordering_and_dups(self):
        assert check_client_fifo({"c": [(0, "ok"), (2, "ok"), (1, "ok")]})
        assert check_client_fifo({"c": [(0, "ok"), (0, "ok")]})
        assert check_client_fifo({"c": [(0, "ok"), (1, "ok")]}) == []

    def test_completion_flags_missing_items(self):
        violations = check_completion(["a", "b"], {"r0": ["a"]})
        assert violations and "missing 1" in violations[0]

    def test_views_converged_flags_a_lone_view_change(self):
        views = {"r0": (1, False), "r1": (1, False), "r2": (1, False), "r3": (4, True)}
        assert check_views_converged(views) == [
            "views/converged: replica r3 ends in view 4, in a view change (group view 1)"
        ]
        # in the group's view but still changing views: flagged too
        views["r3"] = (1, True)
        assert len(check_views_converged(views)) == 1
        views["r3"] = (1, False)
        assert check_views_converged(views) == []

    def test_views_converged_without_a_majority_flags_everyone(self):
        views = {"r0": (1, False), "r1": (1, False), "r2": (2, False), "r3": (2, False)}
        violations = check_views_converged(views)
        assert len(violations) == 4 and "no majority view" in violations[0]


class TestLivenessMutations:
    """End-to-end: schedules that genuinely break liveness must be caught."""

    def test_permanent_partition_is_reported(self):
        harness = chaos_case("spider")
        never_heals = FaultAction(
            kind="partition", target="tokyo", start_ms=3_000.0, duration_ms=1e9
        )
        result = harness.run(3, actions=[never_heals])
        assert any("liveness" in violation for violation in result.violations)

    def test_beyond_budget_crashes_are_reported(self):
        harness = chaos_case("spider")
        result = harness.run(
            3,
            actions=[
                FaultAction(kind="crash", target="g0-e0", start_ms=3_000.0, duration_ms=1e9),
                FaultAction(kind="crash", target="g0-e1", start_ms=3_000.0, duration_ms=1e9),
            ],
        )
        assert any("liveness" in violation for violation in result.violations)

    def test_wedged_pbft_minority_is_reported(self):
        harness = chaos_case("pbft")
        result = harness.run(
            2,
            actions=[
                FaultAction(kind="block_link", target="r0->r3", start_ms=500.0, duration_ms=1e9),
                FaultAction(kind="block_link", target="r1->r3", start_ms=500.0, duration_ms=1e9),
                FaultAction(kind="block_link", target="r2->r3", start_ms=500.0, duration_ms=1e9),
            ],
        )
        assert any("liveness" in violation for violation in result.violations)


class TestSafetyMutation:
    """An equivocating leader must split the group once the quorum rule is
    sabotaged — and the agreement checker must catch the divergence.

    With the real quorum (2f+1 = 3 of 4) the same equivocation is
    harmless: neither proposal can gather a quorum, which doubles as the
    control assertion that PBFT's guard works.
    """

    def _equivocate(self, cluster, harness, weaken_quorum):
        leader = harness.replicas[0]
        if weaken_quorum:
            for replica in harness.replicas:
                replica.quorum = 2  # "forged quorum": safety rule disabled
        split = {"r1"}  # r1 sees payload A, r2/r3 see payload B

        class TwoFaced(Behaviour):
            def _apply(self, dst, message):
                if isinstance(message, PrePrepare) and dst.name not in split:
                    body = PrePrepare(
                        tag=message.tag,
                        view=message.view,
                        seq=message.seq,
                        payload=("EVIL", message.seq),
                        sender=message.sender,
                    )
                    message = attach_auth(
                        body,
                        auth=make_mac_vector(leader.name, leader.peer_names, body),
                    )
                self._forward(dst, message)

        TwoFaced().install(leader.node)
        leader.order(("honest", 1))
        cluster.run(until=5_000.0)
        delivered = {
            name: list(entries) for name, entries in harness.delivered.items()
        }
        return check_sequence_agreement(delivered, list(delivered))

    def test_checker_catches_split_brain_with_sabotaged_quorum(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=60_000.0)
        violations = self._equivocate(cluster, harness, weaken_quorum=True)
        assert violations and "safety/agreement" in violations[0]

    def test_real_quorum_defeats_the_same_equivocation(self):
        cluster = Cluster()
        harness = PbftHarness(cluster, view_timeout_ms=60_000.0)
        violations = self._equivocate(cluster, harness, weaken_quorum=False)
        assert violations == []
