"""Unit tests for the chaos subsystem: behaviours, actions, schedules.

Covers the properties the campaign leans on: reversibility (install/
uninstall in any order), RNG isolation (faults never perturb unrelated
draws), schedule determinism, compositional undo, and the engine's
guarantee that an empty schedule leaves the simulation untouched.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosEngine, FaultAction, chaos_case, generate_schedule
from repro.chaos.schedule import ChaosProfile
from repro.faults import (
    DelayBehaviour,
    DropBehaviour,
    DuplicateBehaviour,
    SilenceBehaviour,
)
from repro.net import Payload

from tests.conftest import Cluster


def _ping_setup():
    cluster = Cluster(jitter=0.1)  # jitter draws from sim.rng every send
    a, b = cluster.add_group("n", 2)
    inbox = []
    b.on_message = lambda src, message: inbox.append((cluster.sim.now, message))
    return cluster, a, b, inbox


class TestBehaviourReversibility:
    def test_uninstall_restores_plain_send(self):
        cluster, a, b, inbox = _ping_setup()
        handle = SilenceBehaviour().install(a)
        assert a.faults == [handle]
        handle.uninstall()
        assert a.faults == []  # send goes straight to transmit again
        a.send(b, Payload(10, "hello"))
        cluster.run(until=100.0)
        assert len(inbox) == 1

    def test_stacked_uninstall_out_of_order(self):
        cluster, a, b, inbox = _ping_setup()
        lower = DropBehaviour(0.0).install(a)
        upper = SilenceBehaviour().install(a)
        # Remove the *lower* behaviour first: the chain must stay intact.
        lower.uninstall()
        a.send(b, Payload(10, "swallowed"))
        cluster.run(until=50.0)
        assert inbox == []  # silence still active
        assert a.faults == [upper]
        upper.uninstall()
        assert a.faults == []
        a.send(b, Payload(10, "clear"))
        cluster.run(until=100.0)
        assert len(inbox) == 1

    def test_uninstall_is_idempotent(self):
        cluster, a, b, _ = _ping_setup()
        handle = SilenceBehaviour().install(a)
        handle.uninstall()
        handle.uninstall()
        assert a.faults == []

    def test_stack_empties_only_with_the_last_uninstall(self):
        cluster, a, b, _ = _ping_setup()
        first = SilenceBehaviour().install(a)
        second = DelayBehaviour(5.0).install(a)
        assert a.faults == [first, second]  # latest last
        first.uninstall()
        assert a.faults == [second]  # second behaviour still active
        second.uninstall()
        assert a.faults == []


class TestDelayBehaviourLifecycle:
    def test_crashed_delayer_stops_emitting(self):
        cluster, a, b, inbox = _ping_setup()
        DelayBehaviour(50.0).install(a)
        a.send(b, Payload(10, "doomed"))
        cluster.run(until=10.0)  # delayed transmission still parked
        a.crash()
        a.recover()  # even recovering must not resurrect the message
        cluster.run(until=500.0)
        assert inbox == []

    def test_uninstall_cancels_parked_transmissions(self):
        cluster, a, b, inbox = _ping_setup()
        handle = DelayBehaviour(50.0).install(a)
        a.send(b, Payload(10, "cancelled"))
        baseline = cluster.sim.pending_events
        handle.uninstall()
        assert cluster.sim.pending_events == baseline - 1  # event truly dead
        cluster.run(until=500.0)
        assert inbox == []

    def test_parked_send_skips_a_behaviour_uninstalled_below(self):
        cluster, a, b, inbox = _ping_setup()
        silence = SilenceBehaviour().install(a)
        delay = DelayBehaviour(50.0).install(a)
        a.send(b, Payload(10, "parked"))
        silence.uninstall()
        assert a.faults == [delay]
        cluster.run(until=500.0)  # the delay forwards straight to transmit
        assert [(message.label, at >= 50.0) for at, message in inbox] == [("parked", True)]

    def test_active_delayer_delays(self):
        cluster, a, b, inbox = _ping_setup()
        DelayBehaviour(75.0).install(a)
        a.send(b, Payload(10, "late"))
        cluster.run(until=1000.0)
        assert len(inbox) == 1
        assert inbox[0][0] >= 75.0


class TestRngIsolation:
    """Arming a randomised fault must not reshuffle unrelated draws."""

    def _trace(self, with_noop_dropper):
        cluster, a, b, inbox = _ping_setup()
        if with_noop_dropper:
            # drop_fraction 0: never drops, but *draws* on every send —
            # before the fix those draws came from the shared sim.rng and
            # shifted every subsequent jitter sample.
            DropBehaviour(0.0).install(a)
        for index in range(10):
            cluster.sim.schedule_at(
                10.0 * index, a.send, b, Payload(100, f"m{index}")
            )
        cluster.run(until=1000.0)
        return [(round(t, 9), m.label) for t, m in inbox]

    def test_noop_dropper_leaves_delivery_times_identical(self):
        assert self._trace(False) == self._trace(True)

    def test_duplicator_uses_private_rng(self):
        cluster, a, b, inbox = _ping_setup()
        state_before = cluster.sim.rng.getstate()
        handle = DuplicateBehaviour(1.0).install(a)
        a.send(b, Payload(10, "twice"))
        cluster.run(until=100.0)
        assert len(inbox) == 2  # duplicated ...
        # ... with zero draws from the shared RNG beyond the two jitter
        # samples the two deliveries themselves consume.
        cluster.sim.rng.setstate(state_before)


class TestScheduleGeneration:
    def _profile(self):
        return ChaosProfile(
            node_kinds=("crash", "delay", "drop"),
            victims=("r0",),
            min_start_ms=100.0,
            horizon_ms=5_000.0,
            regions=("tokyo",),
            links=(("r0", "r1"),),
        )

    def test_same_seed_same_schedule(self):
        first = generate_schedule("pbft", 7, self._profile())
        second = generate_schedule("pbft", 7, self._profile())
        assert first == second and first

    def test_different_seeds_differ(self):
        schedules = {
            tuple(generate_schedule("pbft", seed, self._profile())) for seed in range(12)
        }
        assert len(schedules) > 6

    def test_windows_respect_bounds_and_budget(self):
        profile = self._profile()
        for seed in range(30):
            for action in generate_schedule("x", seed, profile):
                assert action.start_ms >= profile.min_start_ms
                assert action.end_ms <= profile.horizon_ms + 1e-9
                if action.kind in ("crash", "delay", "drop"):
                    assert action.target in profile.victims

    def test_no_overlapping_windows_per_kind_and_target(self):
        profile = self._profile()
        for seed in range(30):
            windows = {}
            for action in generate_schedule("x", seed, profile):
                for start, end in windows.get((action.kind, action.target), []):
                    assert action.end_ms <= start or action.start_ms >= end
                windows.setdefault((action.kind, action.target), []).append(
                    (action.start_ms, action.end_ms)
                )


class TestChaosEngine:
    def test_crash_window_applies_and_undoes(self):
        cluster, a, b, _ = _ping_setup()
        engine = ChaosEngine(cluster.sim, cluster.network, {"n0": a, "n1": b})
        engine.install([FaultAction(kind="crash", target="n0", start_ms=10.0, duration_ms=20.0)])
        cluster.run(until=15.0)
        assert a.crashed
        cluster.run(until=50.0)
        assert not a.crashed and a.crash_count == 1

    def test_partition_windows_compose(self):
        cluster, a, b, _ = _ping_setup()
        engine = ChaosEngine(cluster.sim, cluster.network, {"n0": a, "n1": b})
        engine.install(
            [
                FaultAction(kind="partition", target="tokyo", start_ms=10.0, duration_ms=100.0),
                FaultAction(kind="partition", target="oregon", start_ms=20.0, duration_ms=30.0),
            ]
        )
        cluster.run(until=25.0)
        assert len(cluster.network.fault.partitions) == 2
        cluster.run(until=60.0)  # oregon healed, tokyo still cut
        assert cluster.network.fault.partitions == {frozenset({"tokyo"})}
        cluster.run(until=200.0)
        assert not cluster.network.fault.partitions

    def test_empty_schedule_schedules_nothing(self):
        cluster, a, b, _ = _ping_setup()
        before = cluster.sim.pending_events
        ChaosEngine(cluster.sim, cluster.network, {"n0": a, "n1": b}).install([])
        assert cluster.sim.pending_events == before

    def test_undo_all_recovers_active_windows(self):
        cluster, a, b, _ = _ping_setup()
        engine = ChaosEngine(cluster.sim, cluster.network, {"n0": a, "n1": b})
        engine.install([FaultAction(kind="silence", target="n0", start_ms=5.0, duration_ms=1e9)])
        cluster.run(until=10.0)
        assert [fault.kind for fault in a.faults] == ["silence"]
        engine.undo_all()
        assert a.faults == []

    def test_link_mod_window(self):
        cluster, a, b, inbox = _ping_setup()
        engine = ChaosEngine(cluster.sim, cluster.network, {"n0": a, "n1": b})
        engine.install(
            [FaultAction(kind="link_delay", target="n0->n1", start_ms=0.0, duration_ms=50.0, param=200.0)]
        )
        cluster.sim.schedule_at(10.0, a.send, b, Payload(10, "slow"))
        cluster.sim.schedule_at(60.0, a.send, b, Payload(10, "fast"))
        cluster.run(until=1000.0)
        contents = {m.label: t for t, m in inbox}
        assert contents["slow"] >= 210.0
        assert contents["fast"] < 100.0


class TestNoFaultParity:
    """A chaos-wrapped run with zero faults must be byte-identical to the
    same workload without the chaos layer loaded (acceptance criterion)."""

    @pytest.mark.parametrize("config", ["pbft", "irmc-rc", "irmc-sc", "spider"])
    def test_empty_campaign_matches_bare_run(self, config):
        harness = chaos_case(config)
        wrapped = harness.run(3, actions=[])
        bare = harness.run(3, actions=[], chaos=False)
        assert wrapped.ok and bare.ok
        assert wrapped.stats == bare.stats
        assert wrapped.fingerprint() == bare.fingerprint()


class TestShrinker:
    def test_shrinks_to_the_single_guilty_action(self):
        from repro.chaos import shrink_schedule

        harness = chaos_case("spider")
        guilty = FaultAction(kind="partition", target="tokyo", start_ms=3000.0, duration_ms=1e9)
        innocent = [
            FaultAction(kind="delay", target="ag1", start_ms=2000.0, duration_ms=1000.0, param=50.0),
            FaultAction(kind="drop", target="g0-e0", start_ms=4000.0, duration_ms=1000.0, param=0.2),
        ]
        minimal = shrink_schedule(harness, 5, actions=[innocent[0], guilty, innocent[1]])
        assert minimal == [guilty]

    def test_emitted_snippet_runs_as_pasted(self):
        """The regression body ``repro_snippet`` prints must execute
        verbatim — imports, lookup name and all."""
        from repro.chaos import repro_snippet

        actions = [
            FaultAction(kind="delay", target="r1", start_ms=500.0, duration_ms=300.0, param=40.0),
        ]
        snippet = repro_snippet(chaos_case("pbft"), 4, actions)
        assert "passes at generation time" in snippet
        namespace: dict = {}
        exec(snippet, namespace)
        namespace["test_minimized_chaos_repro"]()

    def test_failure_record_of_a_violating_cell(self, monkeypatch):
        """One helper builds the failure-artifact entry for the sweep and
        the CLI alike, from the cell's record: the cell as run, the shrunk
        schedule, the snippet."""
        from repro.chaos import ChaosCase, failure_record, run_cells

        wedge = [FaultAction("block_link", f"r{i}->r3", 500.0, 1e9) for i in range(3)]
        innocent = FaultAction("delay", "r1", 600.0, 200.0, 30.0)
        monkeypatch.setattr(ChaosCase, "derive_schedule", lambda case, seed: wedge + [innocent])
        [cell] = run_cells("chaos", ["pbft"], [2])
        assert "error" not in cell and not cell["ok"]
        record = failure_record(cell)
        assert sorted(record) == [
            "config", "fingerprint", "minimized", "overrides", "schedule", "seed",
            "snippet", "violations",
        ]
        assert record["schedule"] == cell["schedule"]
        assert record["fingerprint"] == cell["campaign_fingerprint"]
        # The artifact says what was enforced: the table row's obligations.
        assert cell["invariants"] == list(chaos_case("pbft").invariants)
        assert dict(vars(innocent)) not in record["minimized"] and record["minimized"]
        assert "FAILS at generation time" in record["snippet"]
