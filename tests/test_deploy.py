"""Tests for the declarative deployment API (``repro.deploy``).

Three pillars:

* **Spec round-tripping / validation** — malformed specs fail loudly
  before any node exists, with the offending id in the message.
* **Byte-parity** — a 1-shard spec builds a system whose full run (reply
  traces, journals, event count, simulated clock) reproduces the record
  of the hand-wired ``Shard`` path it replaced.
* **Multi-shard routing invariants** — per-key FIFO, exactly-once across
  shards, single-owner placement, and cross-shard parallelism of the
  session surface.
"""

import doctest

import pytest

import repro
from repro.app.kvstore import KVStore
from repro.chaos.invariants import check_client_fifo, check_exactly_once
from repro.core import SpiderConfig
from repro.deploy import (
    BftSpec,
    ClusterSpec,
    Consistency,
    GroupSpec,
    HftSpec,
    ShardSpec,
    build,
)
from repro.elastic import RangeMap
from repro.errors import ConfigurationError
from repro.metrics import sim_fingerprint
from repro.net import Network, Site, Topology
from repro.sim import Simulator


class RecordingKVStore(KVStore):
    """KVStore journaling every applied operation (same checker shape as
    ``tests/test_batching_properties.py``)."""

    def __init__(self):
        super().__init__()
        self.journal = []

    def apply(self, operation):
        self.journal.append(operation)
        return super().apply(operation)


def two_shard_spec(app_factory=RecordingKVStore, **config_kwargs):
    return ClusterSpec(
        shards=(
            ShardSpec("sa", groups=(GroupSpec("a0", "virginia"),)),
            ShardSpec("sb", groups=(GroupSpec("b0", "virginia"),)),
        ),
        config=SpiderConfig(**config_kwargs),
        app_factory=app_factory,
    )


# ======================================================================
# Spec validation
# ======================================================================
class TestSpecValidation:
    def test_no_shards(self):
        with pytest.raises(ConfigurationError, match="at least one shard"):
            ClusterSpec(shards=()).validate()

    def test_duplicate_shard_ids(self):
        spec = ClusterSpec(
            shards=(
                ShardSpec("s0", groups=(GroupSpec("g0", "virginia"),)),
                ShardSpec("s0", groups=(GroupSpec("g1", "virginia"),)),
            )
        )
        with pytest.raises(ConfigurationError, match="duplicate shard id 's0'"):
            spec.validate()

    def test_duplicate_group_ids_across_shards(self):
        spec = ClusterSpec(
            shards=(
                ShardSpec("s0", groups=(GroupSpec("g0", "virginia"),)),
                ShardSpec("s1", groups=(GroupSpec("g0", "tokyo"),)),
            )
        )
        with pytest.raises(ConfigurationError, match="duplicate group id 'g0'"):
            spec.validate()

    def test_region_without_sites(self):
        spec = ClusterSpec(
            shards=(
                ShardSpec("s0", groups=(GroupSpec("g0", "virginia", sites=()),)),
            )
        )
        with pytest.raises(ConfigurationError, match="0 sites"):
            spec.validate()
        empty_region = ClusterSpec(
            shards=(ShardSpec("s0", groups=(GroupSpec("g0", ""),)),)
        )
        with pytest.raises(ConfigurationError, match="region must be non-empty"):
            empty_region.validate()

    def test_group_sites_must_cover_execution_size(self):
        spec = ClusterSpec(
            shards=(
                ShardSpec(
                    "s0",
                    groups=(
                        GroupSpec("g0", "virginia", sites=(Site("virginia", 1),)),
                    ),
                )
            ,),
            config=SpiderConfig(fe=1),  # needs 3 replicas
        )
        with pytest.raises(ConfigurationError, match="needs 3"):
            spec.validate()

    def test_agreement_zones_must_cover_agreement_size(self):
        spec = ClusterSpec(
            shards=(
                ShardSpec(
                    "s0",
                    groups=(GroupSpec("g0", "virginia"),),
                    agreement_zones=(1, 2),
                ),
            )
        )
        with pytest.raises(ConfigurationError, match="availability"):
            spec.validate()

    def test_shard_without_groups(self):
        spec = ClusterSpec(shards=(ShardSpec("s0"),))
        with pytest.raises(ConfigurationError, match="no execution groups"):
            spec.validate()
        # ... unless it is the Spider-0E variant.
        ClusterSpec(shards=(ShardSpec("s0"),), execute_locally=True).validate()

    @pytest.mark.parametrize("key", ["consensus", "regoins", "regions"])
    def test_from_dict_rejects_unknown_topology_keys(self, key):
        """``shards`` is the one plain-data form: the old single-shard
        ``regions`` shorthand is an unknown key like any misspelling."""
        with pytest.raises(ConfigurationError, match=f"unknown keys \\['{key}'\\]"):
            ClusterSpec.from_dict({"shards": [], key: "raft"})

    def test_make_client_for_a_group_the_shard_does_not_host(self):
        """Both surfaces used to raise a bare ``KeyError: 'b0'``."""
        cluster = build(Simulator(seed=1), two_shard_spec())
        message = r"shard 'sa' hosts no group 'b0'; its groups: \['a0'\]"
        with pytest.raises(ConfigurationError, match=message):
            cluster.make_client("c1", "virginia", group_id="b0", shard_id="sa")
        with pytest.raises(ConfigurationError, match=message):
            cluster.shard("sa").make_client("c2", "virginia", group_id="b0")

    def test_multi_shard_0e_rejected(self):
        spec = ClusterSpec(
            shards=(ShardSpec("s0"), ShardSpec("s1")), execute_locally=True
        )
        with pytest.raises(ConfigurationError, match="single-shard"):
            spec.validate()

    def test_build_validates(self):
        sim = Simulator(seed=1)
        with pytest.raises(ConfigurationError):
            build(sim, ClusterSpec(shards=()))

    def test_unknown_spec_type(self):
        with pytest.raises(ConfigurationError, match="unknown spec type"):
            build(Simulator(seed=1), object())

    def test_baseline_spec_validation(self):
        with pytest.raises(ConfigurationError, match="needs >= 4"):
            BftSpec(regions=("virginia", "oregon")).validate()
        with pytest.raises(ConfigurationError, match="not in regions"):
            BftSpec(
                regions=("virginia", "oregon", "ireland", "tokyo"), leader="mars"
            ).validate()
        with pytest.raises(ConfigurationError, match="at least two"):
            HftSpec(regions=("virginia",)).validate()

    def test_bad_baseline_specs_die_before_a_node_exists(self):
        """All three used to surface (or not at all) inside the system
        constructors, after earlier replicas had registered."""
        regions = ("virginia", "oregon", "ireland", "tokyo")
        three_sites = tuple(Site("oregon", zone) for zone in (1, 2, 3))
        cases = [
            (
                HftSpec(regions=regions, site_layout=(("oregon", three_sites),)),
                "site layout for oregon too small",
            ),
            (
                HftSpec(regions=regions, site_layout=(("mars", three_sites * 2),)),
                "site layout for unknown region 'mars'",
            ),
            (
                BftSpec(regions=regions, weights=(("mars", 2.0),)),
                r"weights for unknown regions: \['mars'\]",
            ),
        ]
        for spec, message in cases:
            sim = Simulator(seed=1)
            network = Network(sim, Topology())
            with pytest.raises(ConfigurationError, match=message):
                build(sim, spec, network=network)
            assert not network.nodes

    def test_partitioner_is_deterministic_and_total(self):
        table = RangeMap.modulo(("sa", "sb", "sc"))
        owners = {key: table.owner(key) for key in (f"k{i}" for i in range(64))}
        assert owners == {
            key: table.owner(key) for key in owners
        }  # stable on re-query
        assert set(owners.values()) == {"sa", "sb", "sc"}  # all shards used
        for shard_id in ("sa", "sb", "sc"):
            for key in table.keys_for(shard_id, 5):
                assert table.owner(key) == shard_id
        with pytest.raises(ConfigurationError, match="'sz' owns no slots"):
            table.keys_for("sz", 1)  # would otherwise spin forever


def test_package_quick_tour_runs():
    """The quick tour in the package docstring builds through ``build``."""
    result = doctest.testmod(repro)
    assert result.attempted > 0 and result.failed == 0


# ======================================================================
# Byte-parity: spec-built == hand-wired
# ======================================================================
def run_reference_workload(sim, make_client):
    """Chained writes + strong reads from three clients, two regions."""
    homes = {"c0": ("virginia", "g0"), "c1": ("virginia", "g0"), "c2": ("tokyo", "g1")}
    clients = [
        make_client(name, region, group_id)
        for name, (region, group_id) in homes.items()
    ]
    replies = {client.name: [] for client in clients}

    def issue(client, index=0):
        if index >= 4:
            return
        if index % 3 == 2:
            future = client.strong_read(("get", f"w-{client.name}-{index - 1}"))
        else:
            future = client.write(("put", f"w-{client.name}-{index}", index))
        future.add_callback(
            lambda result: (replies[client.name].append(result), issue(client, index + 1))
        )

    for client in clients:
        issue(client)
    sim.run(until=120_000.0, max_events=3_000_000)
    return clients, replies


def full_trace(sim, clients, replies, groups):
    return (
        repr([(c.name, c.completed) for c in clients]),
        repr(replies),
        repr(
            [
                (r.name, r.app.journal)
                for g in groups.values()
                for r in g.replicas
            ]
        ),
        sim.events_processed,
        sim.now,
    )


#: ``(events_processed, now, sim_fingerprint(full_trace))`` of the
#: reference workload on the hand-wired ``Shard`` path this spec path
#: replaced, recorded per seed under the suite's scaled crypto cost model
#: before the hand-wired constructor was deleted.  (Zero jitter leaves
#: nothing for the seed to move.)
HAND_WIRED_RECORD = {
    1: (25665, 120000.0, 335616911),
    7: (25665, 120000.0, 335616911),
    23: (25665, 120000.0, 335616911),
}


class TestSpecParity:
    @pytest.mark.parametrize("seed", sorted(HAND_WIRED_RECORD))
    def test_one_shard_spec_is_byte_identical_to_hand_wired(self, seed):
        """The acceptance bar: a spec-built 1-shard run reproduces the
        recorded hand-wired run on reply traces, journals and simulator
        stats — byte for byte."""
        sim = Simulator(seed=seed)
        spec = ClusterSpec(
            shards=(
                ShardSpec(
                    "s0",
                    groups=(GroupSpec("g0", "virginia"), GroupSpec("g1", "tokyo")),
                ),
            ),
            config=SpiderConfig(),
            app_factory=RecordingKVStore,
        )
        cluster = build(sim, spec, network=Network(sim, Topology(), jitter=0.0))
        clients, replies = run_reference_workload(sim, cluster.make_client)
        trace = full_trace(sim, clients, replies, cluster.system.groups)
        assert (sim.events_processed, sim.now, sim_fingerprint(trace)) == (
            HAND_WIRED_RECORD[seed]
        )

    def test_single_shard_names_match_legacy(self):
        sim = Simulator(seed=1)
        cluster = build(sim, ClusterSpec.single(regions=("virginia",)))
        shard = cluster.system
        assert [r.name for r in shard.agreement_replicas] == ["ag0", "ag1", "ag2", "ag3"]
        assert shard.admin.name == "admin"
        assert shard.groups["virginia"].member_names == (
            "virginia-e0",
            "virginia-e1",
            "virginia-e2",
        )

    def test_multi_shard_names_are_prefixed_and_disjoint(self):
        sim = Simulator(seed=1)
        cluster = build(sim, two_shard_spec())
        names = [n.name for n in cluster.all_nodes]
        assert len(names) == len(set(names))
        assert "sa-ag0" in names and "sb-ag0" in names
        assert cluster.shard("sa").admin.name == "sa-admin"
        # Each shard's admin is authorised for its own agreement group.
        assert cluster.shard("sa").config.admins == ("sa-admin",)
        assert cluster.shard("sb").config.admins == ("sb-admin",)


# ======================================================================
# Multi-shard routing invariants
# ======================================================================
class TestShardedRouting:
    def run_sharded_workload(self, seed=5, n_sessions=3, n_keys=4, writes_per_key=2):
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        cluster = build(sim, two_shard_spec(), network=network)
        sessions = [cluster.session(f"u{i}", "virginia") for i in range(n_sessions)]
        # Interleave keys across both shards per session.
        keys = cluster.range_map.keys_for("sa", n_keys // 2) + (
            cluster.range_map.keys_for("sb", n_keys - n_keys // 2)
        )
        completions = {s.name: [] for s in sessions}

        ops = []
        for session in sessions:
            for round_index in range(writes_per_key):
                for key in keys:
                    ops.append((session, key, f"{session.name}:{key}:{round_index}"))

        def issue(session, index=0):
            mine = [op for op in ops if op[0] is session]
            if index >= len(mine):
                return
            _, key, value = mine[index]
            future = session.write(key, value)
            future.add_callback(
                lambda result: (
                    completions[session.name].append((index, (key, result))),
                    issue(session, index + 1),
                )
            )

        for session in sessions:
            issue(session)
        sim.run(until=240_000.0, max_events=6_000_000)
        return sim, cluster, sessions, keys, completions

    def test_per_key_fifo_and_exactly_once_across_shards(self):
        sim, cluster, sessions, keys, completions = self.run_sharded_workload()
        writes_per_session = len(keys) * 2

        # Every operation completed, per session, in issue order (the
        # session pipelines across shards but preserves per-shard FIFO;
        # chained issuance here makes the global order total).
        assert not check_client_fifo(completions)
        for session in sessions:
            assert len(completions[session.name]) == writes_per_session

        # Exactly-once across shards: each write applied at exactly one
        # shard — the key's owner — and exactly once per replica there.
        journals = {}
        for shard_id in ("sa", "sb"):
            shard = cluster.shard(shard_id)
            for group in shard.groups.values():
                for replica in group.replicas:
                    journals[replica.name] = [
                        op for op in replica.app.journal if op[0] == "put"
                    ]
        assert not check_exactly_once(journals, journals)
        for key in keys:
            owner = cluster.range_map.owner(key)
            for shard_id in ("sa", "sb"):
                shard = cluster.shard(shard_id)
                for group in shard.groups.values():
                    for replica in group.replicas:
                        hits = [op for op in journals[replica.name] if op[1] == key]
                        if shard_id == owner:
                            assert len(hits) == len(sessions) * 2, (
                                f"{replica.name} missing writes for {key}"
                            )
                        else:
                            assert not hits, (
                                f"{replica.name} applied {key} owned by {owner}"
                            )

        # Per-key FIFO at the replicas: every replica of the owning group
        # applied each session's writes to a key in issue order.
        for key in keys:
            for session in sessions:
                expected = [
                    ("put", key, f"{session.name}:{key}:{r}") for r in range(2)
                ]
                owner = cluster.shard_for_key(key)
                for group in owner.groups.values():
                    for replica in group.replicas:
                        mine = [
                            op
                            for op in journals[replica.name]
                            if op[1] == key and op[2].startswith(session.name + ":")
                        ]
                        assert mine == expected

    def test_sessions_pipeline_across_shards(self):
        """Ordered ops on different shards run concurrently: with one op
        in flight per shard, a two-shard session holds two in flight."""
        sim = Simulator(seed=11)
        cluster = build(sim, two_shard_spec(), network=Network(sim, Topology(), jitter=0.0))
        session = cluster.session("u0", "virginia")
        key_a = cluster.range_map.keys_for("sa", 1)[0]
        key_b = cluster.range_map.keys_for("sb", 1)[0]
        fa = session.write(key_a, 1)
        fb = session.write(key_b, 2)
        assert session.pending_ops == 2
        sim.run(until=30_000.0)
        assert fa.done and fb.done

    def test_weak_and_strong_reads_route_to_owner(self):
        sim = Simulator(seed=6)
        cluster = build(sim, two_shard_spec(), network=Network(sim, Topology(), jitter=0.0))
        session = cluster.session("u0", "virginia")
        key = cluster.range_map.keys_for("sb", 1)[0]
        write = session.write(key, "v")
        sim.run(until=20_000.0)
        assert write.value == ("ok", 1)
        strong = session.read(key, Consistency.STRONG)
        weak = session.read(key)
        sim.run(until=40_000.0)
        assert strong.value == ("value", "v")
        assert weak.value == ("value", "v")
        # Only the owning shard saw any traffic from this session.
        assert set(session._clients) == {"sb"}

    def test_closed_session_rejects_operations(self):
        sim = Simulator(seed=8)
        cluster = build(sim, two_shard_spec(), network=Network(sim, Topology(), jitter=0.0))
        session = cluster.session("u0", "virginia")
        future = session.write("k", 1)
        sim.run(until=20_000.0)
        assert future.done
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.write("k", 2)
        with pytest.raises(RuntimeError, match="closed"):
            session.read("k")
        # Session names are single-use at the cluster too.
        with pytest.raises(ConfigurationError, match="already exists"):
            cluster.session("u0", "virginia")
