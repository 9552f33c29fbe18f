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
from repro.net import Network, Topology
from repro.sim import Simulator

N_SESSIONS = 1000
SPACING_MS = 120.0

FULL_CHAIN = (
    MiddlewareSpec.of("slo-metrics"),
    MiddlewareSpec.of("admission", depth=32),
    MiddlewareSpec.of("rate-limit", rate=500.0, burst=10.0),
    MiddlewareSpec.of("read-cache", lease_ms=500.0),
)


def build_two_shard_cluster(seed=7):
    sim = Simulator(seed=seed)
    network = Network(sim, Topology(), jitter=0.0)
    spec = ClusterSpec(
        shards=(
            ShardSpec("s0", groups=(GroupSpec("va0", "virginia"),)),
            ShardSpec("s1", groups=(GroupSpec("va1", "virginia"),)),
        ),
        config=SpiderConfig(),
        middleware=FULL_CHAIN,
    )
    return sim, build(sim, spec, network=network)


def max_book_sizes(cluster):
    """Max per-client book sizes across every endpoint in the cluster."""
    sizes = {}

    def note(key, value):
        sizes[key] = max(sizes.get(key, 0), value)

    for shard in cluster.shards.values():
        for replica in shard.agreement_replicas:
            note("ag_t", len(replica.t))
            note("ag_t_plus", len(replica.t_plus))
            note("ag_u", len(replica.u))
            for channels in replica.groups.values():
                rx = channels.request_rx
                note("rx_known", len(rx._known_subchannels))
                note("rx_window", len(rx.window_start))
                note("rx_moves", len(rx._sender_moves))
                note("rx_retire_votes", len(rx._retire_votes))
                note("rx_tombstones", len(rx._retired))
                note("client_loops", len(channels.client_loops))
        for group in shard.groups.values():
            for replica in group.replicas:
                tx = replica.request_tx
                note("ex_t", len(replica.t))
                note("ex_u", len(replica.u))
                note("tx_window", len(tx.window_start))
                note("tx_own_moves", len(tx._own_moves))
                note("tx_moves", len(tx._receiver_moves))
                note("tx_buffer", len(tx._buffer))
                note("tx_retire_echoes", len(tx._retire_echoes))
                note("tx_tombstones", len(tx._retired))
    return sizes


def test_thousand_session_churn_soak():
    sim, cluster = build_two_shard_cluster()
    sessions = []

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

    for index in range(N_SESSIONS):
        sim.schedule_at(200.0 + index * SPACING_MS, one, index)
    sim.run(until=200.0 + N_SESSIONS * SPACING_MS + 60_000.0)

    assert len(sessions) == N_SESSIONS
    assert all(session.closed for session in sessions)

    # Every per-client book drained to zero; tombstone rings stay at or
    # below their fixed cap (repro.irmc.base.RETIRED_TOMBSTONES).
    sizes = max_book_sizes(cluster)
    for key, value in sizes.items():
        if key.endswith("_tombstones"):
            assert value <= 256, (key, value)
        else:
            assert value == 0, (key, sizes)
    assert sizes["rx_tombstones"] > 0  # retirement actually happened

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
    assert offered == N_SESSIONS * 4
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
