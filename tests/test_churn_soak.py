"""Churn soak: 1000 sessions against a 2-shard cluster, full middleware chain.

The long-horizon story all three retirement fixes add up to: a deployment
can churn through an unbounded population of sessions while every
per-client book in the system — channel windows, vote and echo sets,
forwarded counters, reply caches, middleware state, name tombstones —
stays bounded by the *live* population plus fixed-size tombstone rings,
and the traffic-shaping counters reconcile exactly.
"""

from repro.core import SpiderConfig
from repro.deploy import ClusterSpec, MiddlewareSpec, Rejected, ShardSpec, build
from repro.deploy.spec import GroupSpec
from repro.irmc.base import RETIRED_TOMBSTONES
from repro.net import Network, Topology
from repro.sim import Simulator

from tests.conftest import irmc_book_sizes

SPACING_MS = 120.0

FULL_CHAIN = (
    MiddlewareSpec.of("slo-metrics"),
    MiddlewareSpec.of("admission", depth=32),
    MiddlewareSpec.of("rate-limit", rate=500.0, burst=10.0),
    MiddlewareSpec.of("read-cache", lease_ms=500.0),
)


def build_two_shard_cluster(seed=7, irmc_kind="rc"):
    sim = Simulator(seed=seed)
    network = Network(sim, Topology(), jitter=0.0)
    spec = ClusterSpec(
        shards=(
            ShardSpec("s0", groups=(GroupSpec("va0", "virginia"),)),
            ShardSpec("s1", groups=(GroupSpec("va1", "virginia"),)),
        ),
        config=SpiderConfig(irmc_kind=irmc_kind),
        middleware=FULL_CHAIN,
    )
    return sim, build(sim, spec, network=network)


def max_book_sizes(cluster):
    """Max per-client book sizes across every replica and every IRMC
    endpoint in the cluster (the IRMC half is derived, not listed)."""
    sizes = irmc_book_sizes(cluster.shards.values())

    def note(key, value):
        sizes[key] = max(sizes.get(key, 0), value)

    for shard in cluster.shards.values():
        for replica in shard.agreement_replicas:
            note("ag_t", len(replica.t))
            note("ag_t_plus", len(replica.t_plus))
            note("ag_u", len(replica.u))
            for channels in replica.groups.values():
                note("client_loops", len(channels.client_loops))
        for group in shard.groups.values():
            for replica in group.replicas:
                note("ex_t", len(replica.t))
                note("ex_u", len(replica.u))
    return sizes


def test_thousand_session_churn_soak():
    churn_soak("rc", n_sessions=1000)


def test_two_hundred_session_churn_soak_over_irmc_sc():
    churn_soak("sc", n_sessions=200)


def churn_soak(irmc_kind, n_sessions):
    sim, cluster = build_two_shard_cluster(irmc_kind=irmc_kind)
    sessions = []
    mid_run = {}

    def one(index):
        session = cluster.session(f"user-{index}", "virginia")
        sessions.append(session)
        # Two keys land on whichever shards own them; the repeated weak
        # read of the first key exercises the cache on the hot path.
        write = session.write(f"key-{index}", index)
        session.write(f"spread-{index}", index)
        session.read(f"key-{index}")
        last = session.read(f"key-{index}")
        last.add_callback(lambda _result: session.close())
        if write.done and isinstance(write.value, Rejected) and not session.closed:
            session.close()  # everything shed synchronously: close now

    for index in range(n_sessions):
        sim.schedule_at(200.0 + index * SPACING_MS, one, index)
    sim.schedule_at(
        200.0 + n_sessions // 2 * SPACING_MS, lambda: mid_run.update(max_book_sizes(cluster))
    )
    sim.run(until=200.0 + n_sessions * SPACING_MS + 60_000.0)

    assert len(sessions) == n_sessions
    assert all(session.closed for session in sessions)

    # Every per-client book drained to zero; tombstone rings stay at or
    # below their fixed cap.  The commit channels carry one subchannel
    # for the whole run: their books must not have grown since mid-run.
    sizes = max_book_sizes(cluster)
    for key, value in sizes.items():
        if key.endswith("._retired"):
            assert value <= RETIRED_TOMBSTONES, (key, value)
        elif key.startswith("commit_"):
            assert value <= mid_run[key], (key, value, mid_run[key])
        else:
            assert value == 0, (key, sizes)
    assert sizes["request_rx._retired"] > 0  # retirement actually happened
    assert any(mid_run[key] for key in mid_run if key.startswith("commit_"))

    # Session/name bookkeeping: live sets empty, retired ring bounded.
    assert not cluster.sessions
    assert not cluster._session_names
    assert not cluster._pending_retirement
    assert not cluster._retire_remaining
    assert len(cluster._retired_names) <= cluster.RETIRED_NAME_CAP
    for shard in cluster.shards.values():
        assert not shard.clients

    # Middleware state: no per-session leftovers, counters reconcile.
    slo = cluster.middleware_instance("slo-metrics")
    snap = slo.snapshot()
    offered = sum(snap["offered"].values())
    completed = sum(snap["completed"].values())
    served = sum(snap["served"].values())
    shed = sum(snap["shed"].values())
    assert offered == n_sessions * 4
    assert offered == completed + served + shed
    assert completed > 0

    cache = cluster.middleware_instance("read-cache")
    assert cache.snapshot()["sessions"] == 0
    assert cache.snapshot()["entries"] == 0
    assert cache.hits == served  # every local serve was a cache hit

    limiter = cluster.middleware_instance("rate-limit")
    assert limiter.snapshot()["sessions"] == 0

    admission = cluster.middleware_instance("admission")
    assert all(count == 0 for count in admission.snapshot()["inflight"].values())
