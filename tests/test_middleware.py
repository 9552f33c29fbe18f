"""Tests for the session middleware chain (repro.deploy.middleware).

Covers the chain mechanics (ordering, short-circuit unwinding), each
production middleware in isolation, spec validation, and the end-to-end
behaviour through a built cluster — one chain serving every shard, a
live-added shard included — and the accounting identity
``offered == completed + served + shed`` that the overload benchmark
relies on.
"""

import pytest

from repro.core import SpiderConfig
from repro.deploy import (
    CLOSED,
    OVERLOAD,
    RATE_LIMIT,
    ClusterSpec,
    Middleware,
    MiddlewareChain,
    MiddlewareSpec,
    Rejected,
    Served,
    ShardSpec,
    build,
)
from repro.deploy.middleware import (
    AdmissionControl,
    Op,
    OpContext,
    RateLimit,
    ReadCache,
    SloMetrics,
)
from repro.deploy.spec import GroupSpec
from repro.errors import ConfigurationError
from repro.net import Network, Topology
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Harness: a fake session/clock so unit tests need no cluster
# ----------------------------------------------------------------------
class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _FakeCluster:
    def __init__(self):
        self.sim = _FakeSim()


class _FakeSession:
    def __init__(self, name="alice"):
        self.name = name
        self.cluster = _FakeCluster()
        self.closed = False


def make_ctx(name="alice", shard="s0"):
    return OpContext(_FakeSession(name), shard)


def make_op(ctx, kind="write", key="k"):
    return Op(kind, key, ("put", key, 1), ctx.shard_id, ctx.now)


class _Recorder(Middleware):
    """Records hook invocations; optionally sheds every op."""

    def __init__(self, label, log, shed=False):
        self.label = label
        self.log = log
        self.shed = shed
        self.name = label

    def on_op(self, ctx, op):
        self.log.append(("op", self.label))
        if self.shed:
            return Rejected("test", by=self.label)
        return op

    def on_reply(self, ctx, op, result):
        self.log.append(("reply", self.label, type(result).__name__))


class TestChainMechanics:
    def test_on_op_declared_order_on_reply_reverse(self):
        log = []
        chain = MiddlewareChain([_Recorder("a", log), _Recorder("b", log)])
        ctx = make_ctx()
        op = make_op(ctx)
        assert chain.admit(ctx, op) is op
        chain.complete(ctx, op, "ok")
        assert log == [
            ("op", "a"),
            ("op", "b"),
            ("reply", "b", "str"),
            ("reply", "a", "str"),
        ]

    def test_short_circuit_unwinds_only_prior_middlewares(self):
        log = []
        chain = MiddlewareChain(
            [_Recorder("outer", log), _Recorder("shedder", log, shed=True), _Recorder("inner", log)]
        )
        ctx = make_ctx()
        outcome = chain.admit(ctx, make_op(ctx))
        assert isinstance(outcome, Rejected) and outcome.by == "shedder"
        # inner never saw the op; outer saw the Rejected on the way out.
        assert log == [("op", "outer"), ("op", "shedder"), ("reply", "outer", "Rejected")]

    def test_find_by_name(self):
        chain = MiddlewareChain([AdmissionControl(depth=4), SloMetrics()])
        assert isinstance(chain.find("admission"), AdmissionControl)
        assert chain.find("nope") is None


class TestAdmissionControl:
    def test_sheds_beyond_depth_and_releases_on_reply(self):
        mw = AdmissionControl(depth=2)
        ctx = make_ctx()
        ops = [make_op(ctx) for _ in range(3)]
        assert mw.on_op(ctx, ops[0]) is ops[0]
        assert mw.on_op(ctx, ops[1]) is ops[1]
        shed = mw.on_op(ctx, ops[2])
        assert isinstance(shed, Rejected) and shed.reason == OVERLOAD
        assert mw.shed["s0"] == 1
        mw.on_reply(ctx, ops[0], "ok")
        replacement = make_op(ctx)
        assert mw.on_op(ctx, replacement) is replacement  # slot freed

    def test_weak_reads_bypass_the_gate(self):
        mw = AdmissionControl(depth=1)
        ctx = make_ctx()
        blocker = make_op(ctx)
        mw.on_op(ctx, blocker)
        weak = make_op(ctx, kind="weak-read")
        assert mw.on_op(ctx, weak) is weak

    def test_double_reply_decrements_once(self):
        """A shed-on-close op completes via on_reply once; the scratch
        marker guarantees the inflight gauge never goes negative."""
        mw = AdmissionControl(depth=2)
        ctx = make_ctx()
        op = make_op(ctx)
        mw.on_op(ctx, op)
        mw.on_reply(ctx, op, "ok")
        mw.on_reply(ctx, op, "ok")  # spurious second completion
        assert mw._inflight["s0"] == 0


class TestRateLimit:
    def test_bucket_drains_and_refills_on_simulated_time(self):
        mw = RateLimit(rate=1000.0, burst=2.0)
        ctx = make_ctx()
        assert mw.on_op(ctx, make_op(ctx)) is not None
        assert not isinstance(mw.on_op(ctx, make_op(ctx)), Rejected)
        third = mw.on_op(ctx, make_op(ctx))
        assert isinstance(third, Rejected) and third.reason == RATE_LIMIT
        assert mw.shed_count == 1
        # 1000 tokens/s => 1 token per simulated millisecond.
        ctx.session.cluster.sim.now += 1.5
        assert not isinstance(mw.on_op(ctx, make_op(ctx)), Rejected)

    def test_sessions_have_independent_buckets(self):
        mw = RateLimit(rate=100.0, burst=1.0)
        ctx_a, ctx_b = make_ctx("alice"), make_ctx("bob")
        assert not isinstance(mw.on_op(ctx_a, make_op(ctx_a)), Rejected)
        assert isinstance(mw.on_op(ctx_a, make_op(ctx_a)), Rejected)
        assert not isinstance(mw.on_op(ctx_b, make_op(ctx_b)), Rejected)

    def test_close_drops_the_bucket(self):
        mw = RateLimit(rate=100.0)
        ctx = make_ctx()
        mw.on_op(ctx, make_op(ctx))
        assert mw.snapshot()["sessions"] == 1
        mw.on_session_close(ctx)
        assert mw.snapshot()["sessions"] == 0


class TestReadCache:
    def test_hit_within_lease_then_expiry(self):
        mw = ReadCache(lease_ms=100.0)
        ctx = make_ctx()
        read = make_op(ctx, kind="weak-read")
        assert mw.on_op(ctx, read) is read  # miss
        mw.on_reply(ctx, read, ("ok", "v1"))
        hit = mw.on_op(ctx, make_op(ctx, kind="weak-read"))
        assert isinstance(hit, Served) and hit.value == ("ok", "v1")
        assert mw.hits == 1
        ctx.session.cluster.sim.now += 101.0
        assert not isinstance(mw.on_op(ctx, make_op(ctx, kind="weak-read")), Served)

    def test_write_invalidates_on_submit_and_write_through(self):
        mw = ReadCache(lease_ms=10_000.0)
        ctx = make_ctx()
        read = make_op(ctx, kind="weak-read")
        mw.on_op(ctx, read)
        mw.on_reply(ctx, read, ("ok", "v1"))
        write = make_op(ctx, kind="write")
        mw.on_op(ctx, write)  # submit-side invalidation
        assert mw.invalidations == 1
        assert not isinstance(mw.on_op(ctx, make_op(ctx, kind="weak-read")), Served)
        # A weak read completing while the write is in flight re-installs
        # a lease; the write's completion sweeps it (write-through).
        racer = make_op(ctx, kind="weak-read")
        mw.on_op(ctx, racer)
        mw.on_reply(ctx, racer, ("ok", "stale"))
        mw.on_reply(ctx, write, ("ok", 1))
        assert mw.invalidations == 2
        assert not isinstance(mw.on_op(ctx, make_op(ctx, kind="weak-read")), Served)

    def test_rejected_results_never_cached_and_close_drops_cache(self):
        mw = ReadCache()
        ctx = make_ctx()
        read = make_op(ctx, kind="weak-read")
        mw.on_op(ctx, read)
        mw.on_reply(ctx, read, Rejected(CLOSED))
        assert mw.snapshot()["entries"] == 0
        good = make_op(ctx, kind="weak-read")
        mw.on_op(ctx, good)
        mw.on_reply(ctx, good, ("ok", "v"))
        assert mw.snapshot()["entries"] == 1
        mw.on_session_close(ctx)
        assert mw.snapshot()["entries"] == 0

    def test_strong_read_installs_lease(self):
        mw = ReadCache(lease_ms=1_000.0)
        ctx = make_ctx()
        strong = make_op(ctx, kind="strong-read")
        mw.on_op(ctx, strong)
        mw.on_reply(ctx, strong, ("ok", "fresh"))
        hit = mw.on_op(ctx, make_op(ctx, kind="weak-read"))
        assert isinstance(hit, Served) and hit.value == ("ok", "fresh")


class TestSloMetrics:
    def test_accounting_identity_and_percentiles(self):
        mw = SloMetrics()
        ctx = make_ctx()
        done = make_op(ctx)
        mw.on_op(ctx, done)
        shed = make_op(ctx)
        mw.on_op(ctx, shed)  # overlaps with `done`: depth gauge hits 2
        ctx.session.cluster.sim.now += 40.0
        mw.on_reply(ctx, done, "ok")
        mw.on_reply(ctx, shed, Rejected(OVERLOAD))
        hit = make_op(ctx, kind="weak-read")
        mw.on_op(ctx, hit)
        mw.on_reply(ctx, hit, Served("v"))
        snap = mw.snapshot()
        offered = sum(snap["offered"].values())
        assert offered == (
            sum(snap["completed"].values())
            + sum(snap["served"].values())
            + sum(snap["shed"].values())
        )
        assert snap["p99_ms"]["write"] == 40.0
        assert snap["max_inflight"]["s0"] == 2  # done + shed overlapped

    def test_percentile_of_empty_is_zero(self):
        assert SloMetrics.percentile([], 0.99) == 0.0
        assert SloMetrics.percentile([5.0], 0.5) == 5.0


class TestSpecValidation:
    def test_unknown_middleware_name_rejected_at_validate(self):
        spec = ClusterSpec.single(middleware=(MiddlewareSpec.of("bogus"),))
        with pytest.raises(ConfigurationError, match="unknown middleware"):
            spec.validate()

    def test_bad_options_rejected_at_validate(self):
        for entry in (
            MiddlewareSpec.of("admission", depth=0),
            MiddlewareSpec.of("admission", dept=3),
            MiddlewareSpec.of("rate-limit", rate=-1.0),
            MiddlewareSpec.of("read-cache", lease_ms="soon"),
            MiddlewareSpec.of("slo-metrics", verbose=True),
        ):
            with pytest.raises(ConfigurationError):
                ClusterSpec.single(middleware=(entry,)).validate()


# ----------------------------------------------------------------------
# End-to-end through a built cluster
# ----------------------------------------------------------------------
def build_cluster(middleware=(), seed=3):
    sim = Simulator(seed=seed)
    network = Network(sim, Topology(), jitter=0.0)
    shard = ShardSpec(
        shard_id="s0",
        groups=(GroupSpec("virginia", "virginia"), GroupSpec("tokyo", "tokyo")),
    )
    spec = ClusterSpec(
        shards=(shard,), config=SpiderConfig(), middleware=tuple(middleware)
    )
    cluster = build(sim, spec, network=network)
    return sim, cluster


def build_two_shard_cluster(middleware, seed=3):
    sim = Simulator(seed=seed)
    network = Network(sim, Topology(), jitter=0.0)
    shards = tuple(
        ShardSpec(f"s{index}", groups=(GroupSpec(f"va{index}", "virginia"),))
        for index in range(2)
    )
    spec = ClusterSpec(shards=shards, middleware=tuple(middleware))
    return sim, build(sim, spec, network=network)


class TestEndToEnd:
    def test_operations_flow_through_full_chain(self):
        sim, cluster = build_cluster(
            middleware=(
                MiddlewareSpec.of("slo-metrics"),
                MiddlewareSpec.of("admission", depth=8),
                MiddlewareSpec.of("rate-limit", rate=1000.0, burst=50.0),
                MiddlewareSpec.of("read-cache", lease_ms=20_000.0),
            )
        )
        session = cluster.session("alice", "virginia")
        write = session.write("k", "v")
        sim.run(until=5_000.0)
        assert write.value == ("ok", 1)
        first = session.read("k")
        sim.run(until=10_000.0)
        second = session.read("k")  # lease still fresh: served locally
        assert second.done and second.value == first.value
        cache = cluster.middleware_instance("read-cache")
        assert cache.hits == 1
        slo = cluster.middleware_instance("slo-metrics")
        snap = slo.snapshot()
        assert snap["offered"] == {"write": 1, "weak-read": 2}
        assert snap["served"] == {"weak-read": 1}
        session.close()
        sim.run(until=40_000.0)
        assert cache.snapshot()["sessions"] == 0

    def test_admission_sheds_ordered_backlog(self):
        sim, cluster = build_cluster(
            middleware=(
                MiddlewareSpec.of("slo-metrics"),
                MiddlewareSpec.of("admission", depth=4),
            )
        )
        session = cluster.session("alice", "virginia")
        futures = [session.write("hot", index) for index in range(10)]
        shed = [f for f in futures if f.done and isinstance(f.value, Rejected)]
        assert len(shed) == 6  # depth 4 admitted, rest rejected synchronously
        assert all(r.value.reason == OVERLOAD for r in shed)
        sim.run(until=30_000.0)
        admitted = [f for f in futures if not isinstance(f.value, Rejected)]
        assert len(admitted) == 4
        assert all(f.value[0] == "ok" for f in admitted)
        snap = cluster.middleware_instance("slo-metrics").snapshot()
        assert snap["shed"] == {OVERLOAD: 6}
        assert sum(snap["offered"].values()) == 10

    def test_rejected_weak_read_does_not_touch_wire(self):
        sim, cluster = build_cluster(
            middleware=(MiddlewareSpec.of("rate-limit", rate=10.0, burst=1.0),)
        )
        session = cluster.session("alice", "virginia")
        first = session.read("k")
        second = session.read("k")
        assert second.done and isinstance(second.value, Rejected)
        assert second.value.reason == RATE_LIMIT
        sim.run(until=5_000.0)
        assert first.done and not isinstance(first.value, Rejected)

    def test_one_chain_serves_every_shard(self):
        """Both shards' ops pass through the cluster's one chain: its one
        admission instance books each op under the op's own shard."""
        sim, cluster = build_two_shard_cluster(
            middleware=(MiddlewareSpec.of("admission", depth=16),)
        )
        admission = cluster.middleware_instance("admission")
        assert cluster.chain.middlewares == [admission]
        session = cluster.session("alice", "virginia")
        futures = [
            session.write(cluster.range_map.keys_for(shard_id, 1)[0], "v")
            for shard_id in ("s0", "s1")
        ]
        assert admission._inflight == {"s0": 1, "s1": 1}
        sim.run(until=5_000.0)
        assert all(future.value == ("ok", 1) for future in futures)
        assert admission._inflight == {"s0": 0, "s1": 0}

    def test_split_in_shard_runs_its_ops_through_the_chain(self):
        """A shard brought in live by ``split_shard`` has no declaration
        of its own: its ops pass through the cluster's chain, and the
        books key them by the newcomer's shard id."""
        sim, cluster = build_two_shard_cluster(
            middleware=(
                MiddlewareSpec.of("slo-metrics"),
                MiddlewareSpec.of("admission", depth=16),
            )
        )
        split = cluster.split_shard(
            ShardSpec("s2", groups=(GroupSpec("va2", "virginia"),))
        )
        sim.run(until=20_000.0)
        assert split.done and cluster.range_map.epoch > 0
        session = cluster.session("alice", "virginia")
        write = session.write(cluster.range_map.keys_for("s2", 1)[0], "v")
        assert cluster.middleware_instance("admission")._inflight == {"s2": 1}
        sim.run(until=25_000.0)
        assert write.value == ("ok", 1)
        snap = cluster.middleware_instance("slo-metrics").snapshot()
        assert snap["max_inflight"] == {"s2": 1}
        assert snap["completed"] == {"write": 1}

    def test_empty_chain_builds_no_machinery(self):
        sim, cluster = build_cluster()
        assert cluster.chain is None
        session = cluster.session("alice", "virginia")
        future = session.write("k", "v")
        sim.run(until=5_000.0)
        assert future.value == ("ok", 1)
        assert session._contexts == {}

    def test_post_close_shed_reaches_metrics(self):
        """Ops queued behind a backlog when close() runs surface as
        Rejected(CLOSED) in the metrics — the accounting identity the
        overload benchmark asserts depends on it."""
        sim, cluster = build_cluster(middleware=(MiddlewareSpec.of("slo-metrics"),))
        session = cluster.session("alice", "virginia")
        # Two keys: each key's later writes queue behind its first.
        futures = [session.write(f"k{index % 2}", index) for index in range(5)]
        session.close()
        sim.run(until=30_000.0)
        # k0 and k1 were in flight, one on each lane.
        assert not any(isinstance(f.value, Rejected) for f in futures[:2])
        assert all(
            isinstance(f.value, Rejected) and f.value.reason == CLOSED
            for f in futures[2:]
        )
        snap = cluster.middleware_instance("slo-metrics").snapshot()
        assert snap["shed"] == {CLOSED: 3}
        assert sum(snap["offered"].values()) == 5
        assert sum(snap["completed"].values()) == 2
