"""Property/invariant tests for end-to-end request batching.

For randomized seeds, operation mixes, and batch sizes these lock in the
batching pipeline's safety contract:

(a) every client request is executed exactly once at every replica,
(b) per-client FIFO order is preserved through batch cuts and classify,
(c) all execution replicas of a group apply the identical batch sequence,
(d) ``batch_size=1`` still is the unbatched protocol (pinned fingerprints),
    and the default cap never makes a lone client wait: a one-client run
    is ``sim_equivalent`` to the same run at ``batch_size=1``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.kvstore import KVStore
from repro.core import SpiderConfig
from repro.metrics import sim_equivalent, sim_fingerprint

from tests.test_spider_basic import build_system as build_shard

#: the caps the safety matrix runs at: unbatched, small, the default
CAPS = (1, 4, SpiderConfig().batch_size)


class RecordingKVStore(KVStore):
    """A KVStore that journals every applied operation in order."""

    def __init__(self):
        super().__init__()
        self.journal = []

    def apply(self, operation):
        self.journal.append(operation)
        return super().apply(operation)


def build_system(seed, regions=("virginia", "tokyo"), jitter=0.0, **config_kwargs):
    return build_shard(
        regions, seed, jitter=jitter, app_factory=RecordingKVStore, **config_kwargs
    )


def run_workload(sim, system, n_clients, n_requests, use_reads):
    """Chained closed-loop issuance: request i+1 starts when i completes."""
    homes = ["g0", "g0", "g1"]
    regions = {"g0": "virginia", "g1": "tokyo"}
    clients = [
        system.make_client(f"c{i}", regions[homes[i % len(homes)]], group_id=homes[i % len(homes)])
        for i in range(n_clients)
    ]
    replies = {client.name: [] for client in clients}

    def issue(client, index=0):
        if index >= n_requests:
            return
        if use_reads and index % 3 == 2:
            future = client.strong_read(("get", f"w-{client.name}-{index - 1}"))
        else:
            future = client.write(("put", f"w-{client.name}-{index}", index))
        future.add_callback(
            lambda result: (replies[client.name].append(result), issue(client, index + 1))
        )

    for client in clients:
        issue(client)
    sim.run(until=240_000.0, max_events=3_000_000)
    return clients, replies


def write_log(replica, client_name=None):
    """The journaled put-operations (optionally for one client) in order."""
    return [
        op
        for op in replica.app.journal
        if op[0] == "put" and (client_name is None or op[1].startswith(f"w-{client_name}-"))
    ]


class TestBatchingInvariants:
    # 18 clients are 12 + 6 per group moving in lockstep (no jitter): their
    # requests queue behind each other on the execution replicas, so the
    # request channel carries them as bundles.
    @pytest.mark.parametrize("n_clients", [6, 18])
    @settings(max_examples=9, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(CAPS),
        st.booleans(),  # mix strong reads into the stream
    )
    def test_exactly_once_fifo_and_group_agreement(self, n_clients, seed, batch_size, use_reads):
        sim, system = build_system(seed=seed, batch_size=batch_size)
        n_requests = 4
        clients, replies = run_workload(sim, system, n_clients, n_requests, use_reads)

        # Every request completed at the client, in issue order.
        for client in clients:
            assert len(replies[client.name]) == n_requests

        replicas = [r for g in system.groups.values() for r in g.replicas]
        if n_clients == 18:
            assert all(replica.request_tx.largest_bundle >= 2 for replica in replicas)
        for replica in replicas:
            log = write_log(replica)
            # (a) exactly once: no write applied twice at any replica.
            assert len(log) == len(set(log)), f"duplicate execution at {replica.name}"
            for client in clients:
                mine = write_log(replica, client.name)
                # (a) nothing lost either: every write reached every group.
                expected = [
                    ("put", f"w-{client.name}-{i}", i)
                    for i in range(n_requests)
                    if not (use_reads and i % 3 == 2)
                ]
                # (b) per-client FIFO through batching and classification.
                assert mine == expected, f"order broken at {replica.name}"

        # (c) all replicas of a group applied the identical journal
        # (including strong reads, which only the home group executes).
        for group in system.groups.values():
            journals = {repr(replica.app.journal) for replica in group.replicas}
            assert len(journals) == 1, f"divergence inside group {group.group_id}"

        # And the final application state is identical system-wide.
        states = {
            repr(sorted(replica.app.snapshot()[0].items())) for replica in replicas
        }
        assert len(states) == 1


def observation(system, clients, replies):
    """What the oracle (``repro.metrics.sim_equivalent``) compares of a run."""
    return {
        "replies": {
            client.name: (replies[client.name], client.completed) for client in clients
        },
        "latencies": [
            latency for client in clients for _kind, _start, latency in client.completed
        ],
        "journals": {
            replica.name: replica.app.journal
            for group in system.groups.values()
            for replica in group.replicas
        },
    }


def observe(seed, n_clients, n_requests=4, **build_kwargs):
    sim, system = build_system(seed=seed, jitter=0.05, **build_kwargs)
    clients, replies = run_workload(sim, system, n_clients, n_requests, use_reads=True)
    assert all(len(replies[client.name]) == n_requests for client in clients)
    return observation(system, clients, replies)


class TestUnbatchedReference:
    #: fingerprints of ``observe(seed, n_clients=3)`` at commit 8f16893,
    #: whose only protocol was one instance per request — with the
    #: ``_client_loop`` cursor fix of PR 13 applied to it (seed 7 hits
    #: the race that fix closes: 3136505881 without it; 1234 does not) —
    #: rebased once, by design, when a node began to sign once per CPU
    #: task (PR 16): an agreement replica's two commit-channel Sends now
    #: leave after one ``rsa_sign``, so every reply instant moved.  Until
    #: then they were 3020643471 / 2674070715, and a tree with the seal
    #: forced to sign per emission still produces exactly those.
    PARENT_FINGERPRINTS = {7: 1784505314, 1234: 2641619305}

    @pytest.mark.parametrize("seed", sorted(PARENT_FINGERPRINTS))
    def test_batch_size_one_reproduces_the_parent_commit(self, seed):
        """``batch_size=1`` runs through the same accumulator as every
        other cap (a cap of one), and still is the unbatched protocol:
        replies, reply instants and journals of a concurrent run are those
        the pre-default-batching commit produced."""
        observation = observe(seed, n_clients=3, batch_size=1)
        assert sim_fingerprint(sorted(observation.items())) == (
            self.PARENT_FINGERPRINTS[seed]
        )

    @pytest.mark.parametrize("seed", [3, 77])
    def test_lone_client_never_waits_at_the_default_cap(self, seed):
        """A closed-loop client always finds the leader's pipeline empty,
        so the default cap must propose each of its requests inside the
        task that received it: the run is oracle-equivalent to
        ``batch_size=1``.  Any wait on a clock would move a reply."""
        default = observe(seed, n_clients=1, n_requests=6)
        unbatched = observe(seed, n_clients=1, n_requests=6, batch_size=1)
        assert sim_equivalent(unbatched, default) == []


class TestCheckpointReplayVariants:
    def test_replayed_hist_matches_normal_path_bytes(self):
        """hist stores the full Execute; replay into a commit channel must
        re-derive the per-group form (strong reads home-group-only), or
        recovered senders would vouch different bytes than normal-path
        senders for the same channel position."""
        from repro.core.messages import Execute, RequestBody, RequestWrapper

        sim, system = build_system(seed=1)
        replica = system.agreement_replicas[0]

        def wrapper(kind, group, counter):
            return RequestWrapper(
                body=RequestBody(
                    operation=("get", "k") if kind == "strong-read" else ("put", "k", "v"),
                    client="c1",
                    counter=counter,
                    kind=kind,
                ),
                signature=None,
                group=group,
            )

        write, read = wrapper("write", "g0", 1), wrapper("strong-read", "g0", 2)

        # Unbatched strong read: home group gets the full form, any other
        # group the identical placeholder the normal path would have sent.
        single = Execute(seq=5, request=read)
        assert replica._variant_for_group(single, "g0") is single
        other = replica._variant_for_group(single, "g1")
        assert other == Execute(seq=5, request=None, placeholder=("read", "c1", 2))

        # Batched: only strong-read slots are rewritten, writes and noops
        # stay byte-identical; the home group's batch is untouched.
        batched = Execute(seq=6, request=None, batch=(write, read, ("noop",)))
        assert replica._variant_for_group(batched, "g0") is batched
        assert replica._variant_for_group(batched, "g1").batch == (
            write,
            ("read", "c1", 2),
            ("noop",),
        )

        # Pure-write entries are returned unchanged (same object).
        plain = Execute(seq=7, request=write)
        assert replica._variant_for_group(plain, "g1") is plain

        # A (faulty-leader-crafted) batch containing an AddGroup: the group
        # it adds saw no-op slots up to and including the command (the
        # sync_groups backfill), pre-existing groups saw a no-op only for
        # the command slot — replay must reproduce both exactly.
        from repro.core.messages import AddGroup

        w1, w2 = wrapper("write", "g0", 3), wrapper("write", "g0", 4)
        add = AddGroup(group="g2", members=("x1", "x2", "x3"), admin="admin", nonce=1)
        reconfig = Execute(seq=8, request=None, batch=(w1, add, w2))
        assert replica._variant_for_group(reconfig, "g2").batch == (
            ("noop",),
            ("noop",),
            w2,
        )
        assert replica._variant_for_group(reconfig, "g1").batch == (
            w1,
            ("noop",),
            w2,
        )


class TestCheckpointCadence:
    @pytest.mark.parametrize("batch_size", CAPS)
    def test_group_checkpoints_stay_on_a_common_grid(self, batch_size):
        """Batches straddling the ke boundary leave a residual request
        count; that residual is part of the checkpointed state, so every
        replica — including ones that catch up by adopting a checkpoint —
        generates checkpoints on the same ke-crossing grid.  (Stability
        needs fe+1 matching votes at the *same* seq: off-grid cadences
        would starve checkpoint stability and stall the commit windows.)"""
        sim, system = build_system(
            seed=1, jitter=3.0, batch_size=batch_size, ke=4, ka=4, ag_window=8
        )
        gen_log = {}
        for group in system.groups.values():
            for replica in group.replicas:
                gen_log[replica.name] = []

                def wrapped(seq, state, _orig=replica.cp.gen_cp, _log=gen_log[replica.name]):
                    _log.append(seq)
                    _orig(seq, state)

                replica.cp.gen_cp = wrapped

        from repro.workload import drive_clients

        clients = [system.make_client(f"c{i}", "virginia", group_id="g0") for i in range(5)]
        drive_clients(sim, clients, think_ms=5.0, duration_ms=3000.0)
        sim.run(until=30_000.0)

        # All groups process the same request stream, so the ke-crossing
        # grid is global: no replica may ever checkpoint off it.
        grid = set(max(gen_log.values(), key=len))
        union = set(seq for log in gen_log.values() for seq in log)
        assert union <= grid, f"off-grid checkpoints: {sorted(union - grid)}"
        # And stability keeps forming in every group.
        for group in system.groups.values():
            for replica in group.replicas:
                assert replica.cp.stable_count > 5


class TestByzantineBatchedReconfiguration:
    def test_ineffective_add_group_leaves_live_and_replay_in_sync(self):
        """A faulty leader may batch an AddGroup for a group that already
        exists.  Live classification must treat it as a plain no-op slot
        (no backfill), hist must record a no-op — not the command — and the
        replay variant must therefore reproduce the live bytes exactly."""
        from repro.consensus import Batch
        from repro.core.messages import AddGroup, RequestBody, RequestWrapper

        sim, system = build_system(seed=2, batch_size=4)
        replica = system.agreement_replicas[0]

        def wrapper(counter):
            return RequestWrapper(
                body=RequestBody(
                    operation=("put", f"k{counter}", counter),
                    client="c1",
                    counter=counter,
                ),
                signature=None,
                group="g0",
            )

        w1, w2 = wrapper(1), wrapper(2)
        dup = AddGroup(group="g1", members=("a", "b", "c"), admin="admin", nonce=9)
        executes = replica._classify(1, Batch(items=(w1, dup, w2)))
        live = (w1, ("noop",), w2)
        assert executes["g0"].batch == live
        assert executes["g1"].batch == live  # no backfill: g1 pre-existed
        assert replica.hist[-1].batch == live  # command not recorded
        assert replica._variant_for_group(replica.hist[-1], "g1").batch == live

        # An *effective* AddGroup, by contrast, is recorded in hist and the
        # replay variant backfills the new group's earlier slots.
        grown = AddGroup(
            group="g9",
            members=tuple(r.name for r in system.groups["g1"].replicas),
            admin="admin",
            nonce=10,
        )
        w3, w4 = wrapper(3), wrapper(4)
        executes = replica._classify(2, Batch(items=(w3, grown, w4)))
        assert executes["g9"].batch == (("noop",), ("noop",), w4)
        assert executes["g0"].batch == (w3, ("noop",), w4)
        assert replica.hist[-1].batch == (w3, grown, w4)
        assert replica._variant_for_group(replica.hist[-1], "g9").batch == (
            ("noop",),
            ("noop",),
            w4,
        )
        assert replica._variant_for_group(replica.hist[-1], "g0").batch == (
            w3,
            ("noop",),
            w4,
        )


# ----------------------------------------------------------------------
# One classifier: a batch classifies as its items would one by one
# ----------------------------------------------------------------------
CLIENTS = ("c1", "c2")
COUNTERS = st.integers(min_value=1, max_value=4)
#: item descriptors; counters are drawn small so fresh and duplicate
#: requests, valid and stale retirements all occur
ITEM = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(CLIENTS), COUNTERS),
    st.tuples(st.just("read"), st.sampled_from(CLIENTS), COUNTERS, st.sampled_from(("g0", "g1"))),
    # signed by the client (valid, or stale below its agreed counter) or not (forged)
    st.tuples(st.just("retire"), st.sampled_from(CLIENTS), COUNTERS, st.sampled_from(CLIENTS)),
    st.tuples(st.just("move"), st.sampled_from(("admin", "mallory")), st.integers(1, 2)),
    # g9 is new (effective once), g0 exists (ineffective)
    st.tuples(st.just("add"), st.sampled_from(("g9", "g0"))),
    # g1 exists (effective once), gx never did (ineffective)
    st.tuples(st.just("remove"), st.sampled_from(("g1", "gx"))),
    st.just(("noop",)),
)


def _materialise(system, descriptor):
    from repro.consensus.pbft import NOOP
    from repro.core.messages import (
        AddGroup, CloseSession, RemoveGroup, RequestBody, RequestWrapper, RetireClient,
    )
    from repro.crypto.primitives import attach_auth, sign
    from repro.elastic.messages import MoveRange

    kind = descriptor[0]
    if kind in ("write", "read"):
        _, client, counter, *home = descriptor
        body = RequestBody(
            operation=("put", "k", counter) if kind == "write" else ("get", "k"),
            client=client,
            counter=counter,
            kind="write" if kind == "write" else "strong-read",
        )
        return RequestWrapper(body=body, signature=None, group=home[0] if home else "g0")
    if kind == "retire":
        _, client, counter, signer = descriptor
        close = CloseSession(client=client, counter=counter)
        return RetireClient(client=client, counter=counter, close_signature=sign(signer, close))
    if kind == "move":
        _, admin, epoch = descriptor
        body = MoveRange(
            range_start=0, range_end=4, src_shard="sa", dst_shard="sb", new_epoch=epoch,
            slots=16, phase="seal", admin="admin", nonce=epoch,
        )
        return attach_auth(body, signature=sign(admin, body))
    if kind == "add":
        members = tuple(replica.name for replica in system.groups["g1"].replicas)
        return AddGroup(group=descriptor[1], members=members, admin="admin", nonce=1)
    if kind == "remove":
        return RemoveGroup(group=descriptor[1], admin="admin", nonce=2)
    return NOOP


class TestOneClassifier:
    @settings(max_examples=60, deadline=None)
    @given(descriptors=st.lists(ITEM, min_size=1, max_size=8))
    def test_a_batch_classifies_as_its_items_one_by_one(self, descriptors):
        """Fig. 17 L. 25-40 is written once: ``_classify(seq, Batch(items))``
        yields, per group and in ``hist``, the concatenation of what
        ``_classify`` yields item by item on a twin replica — a group that
        did not exist yet at an item saw a no-op there — and what replay
        derives from ``hist`` is what live delivery shipped."""
        from repro.consensus import Batch
        from repro.core.messages import NOOP_SLOT, AddGroup, RemoveGroup

        (_, batch_system), (_, twin_system) = build_system(seed=3), build_system(seed=3)
        batched, twin = batch_system.agreement_replicas[0], twin_system.agreement_replicas[0]
        items = [_materialise(batch_system, descriptor) for descriptor in descriptors]

        live = batched._classify(1, Batch(items=tuple(items)))
        singles = [twin._classify(seq, item) for seq, item in enumerate(items, start=1)]

        assert set(live) == set(twin.groups) == set(batched.groups)
        for group_id, execute in live.items():
            assert execute.slots() == tuple(
                single[group_id].slots()[0] if group_id in single else NOOP_SLOT
                for single in singles
            )
            assert batched._variant_for_group(batched.hist[-1], group_id) == execute
        # A batch's hist entry keeps an effective reconfiguration command
        # (replay needs it for the backfill); alone it is a no-op.
        assert tuple(
            NOOP_SLOT if isinstance(slot, (AddGroup, RemoveGroup)) else slot
            for slot in batched.hist[-1].slots()
        ) == tuple(entry.slots()[0] for entry in twin.hist)
        for entry, single in zip(twin.hist, singles):
            for group_id, execute in single.items():
                assert twin._variant_for_group(entry, group_id) == execute
        assert (batched.t, batched.t_plus) == (twin.t, twin.t_plus)


class TestBatchConfigValidation:
    def test_nested_pbft_batch_cap_rejected(self):
        from repro.consensus.pbft.config import PbftConfig
        from repro.errors import ConfigurationError

        # There is no nested PbftConfig to carry a second cap.
        with pytest.raises(TypeError, match="pbft"):
            SpiderConfig(pbft=PbftConfig(batch_size=16))
        with pytest.raises(ConfigurationError):
            SpiderConfig(batch_size=0).validate()
        # The supported spelling passes validation and reaches PBFT.
        config = SpiderConfig(batch_size=16)
        config.validate()
        assert config.pbft_config().batch_size == 16

    def test_batch_timeout_ms_is_an_unknown_field_everywhere(self):
        """The timer cut is gone, and so is its knob: a config or spec
        still naming it dies before a node exists."""
        from repro.consensus.pbft.config import PbftConfig
        from repro.deploy import ClusterSpec
        from repro.errors import ConfigurationError

        for config_class in (SpiderConfig, PbftConfig):
            with pytest.raises(TypeError, match="batch_timeout_ms"):
                config_class(batch_timeout_ms=5.0)
        shards = [{"shard_id": "s0", "groups": [{"group_id": "g0", "region": "virginia"}]}]
        with pytest.raises(ConfigurationError, match="batch_timeout_ms"):
            ClusterSpec.from_dict(
                {"shards": shards, "config": {"batch_timeout_ms": 5.0}}
            )
        spec = ClusterSpec.from_dict({"shards": shards, "config": {"batch_size": 8}})
        assert spec.config.batch_size == 8

    def test_fetch_delay_ms_is_an_unknown_field(self):
        """Gap retransmission runs on the catch-up loop's fixed period, so
        its own knob is gone."""
        from repro.consensus.pbft.config import PbftConfig

        with pytest.raises(TypeError, match="fetch_delay_ms"):
            PbftConfig(fetch_delay_ms=500.0)


class TestReconfigurationUnderBatching:
    def test_dynamic_add_group_is_never_batched_with_requests(self):
        """Reconfiguration commands are BATCHABLE = False: the leader cuts
        the open batch and orders them alone, so writes concurrent with an
        AddGroup still reach the new group through hist replay (a command
        inside a batch would leave earlier same-batch writes invisible to
        the group it adds)."""
        sim, system = build_system(seed=4, regions=("virginia",), batch_size=4)
        clients = [
            system.make_client(f"c{i}", "virginia", group_id="g0") for i in range(3)
        ]
        replies = {client.name: [] for client in clients}

        def issue(client, index=0):
            if index >= 6:
                return
            client.write(("put", f"w-{client.name}-{index}", index)).add_callback(
                lambda result: (replies[client.name].append(result), issue(client, index + 1))
            )

        for client in clients:
            issue(client)
        # Inject the reconfiguration while writes are in full flight.
        sim.schedule(30.0, system.add_execution_group_dynamically, "jp", "tokyo")
        sim.run(until=120_000.0, max_events=3_000_000)

        for client in clients:
            assert len(replies[client.name]) == 6
        for replica in system.agreement_replicas:
            assert "jp" in replica.groups
            # The command occupied its own consensus instance.
            for execute in replica.hist:
                if execute.batch is not None:
                    assert all(
                        not isinstance(item, tuple) or item[0] in ("noop", "read")
                        for item in execute.batch
                    )
        # The new group caught up on every write, including those that were
        # in the open batch when AddGroup was ordered (fe+1 of 3 suffice;
        # a straggler may still be fetching).
        expected = {f"w-c{i}-{j}": j for i in range(3) for j in range(6)}
        caught_up = 0
        for replica in system.groups["jp"].replicas:
            data = replica.app.snapshot()[0]
            if all(data.get(key) == value for key, value in expected.items()):
                caught_up += 1
        assert caught_up >= 2


class TestBatchAmortisation:
    def test_concurrent_requests_share_sequence_numbers(self):
        """Under concurrent load the default configuration orders fewer
        instances than requests (the amortisation that drives the
        throughput win), without affecting any safety property above."""
        sim, system = build_system(seed=3)
        clients, replies = run_workload(
            sim, system, n_clients=6, n_requests=4, use_reads=False
        )
        ag = system.agreement_replicas[0]
        assert ag.requests_delivered == 24
        assert ag.delivered_count < ag.requests_delivered
        leader = system.agreement_replicas[0].ag
        assert leader.batches_cut == ag.delivered_count
        assert 1 < leader.largest_batch <= 6
