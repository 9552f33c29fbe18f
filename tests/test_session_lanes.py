"""A session orders through protocol clients ("lanes") opened on demand
per shard.

Each lane is a plain paper client with one request outstanding.  An op
whose key still has an unresolved op joins that op's lane; otherwise it
takes the shard's lowest-index idle lane, or else opens the next one.  So
an ordered op queues only behind ops on its own key, ops on one key stay
FIFO, and a session whose ops never overlap opens exactly one client per
shard.  When a lane frees, the run of same-kind ops on one key at the
head of its queue leaves as one compound request.
"""

import random

from repro.core.messages import ClientRequest
from repro.deploy import (
    CLOSED,
    ClusterSpec,
    GroupSpec,
    MiddlewareSpec,
    Rejected,
    ShardSpec,
    build,
)
from repro.net import Network, Topology
from repro.sim import Simulator

from tests.conftest import irmc_book_sizes


def build_cluster(seed=3, shards=("s0",), middleware=()):
    sim = Simulator(seed=seed)
    network = Network(sim, Topology(), jitter=0.0)
    spec = ClusterSpec(
        shards=tuple(
            ShardSpec(shard_id, groups=(GroupSpec(f"g-{shard_id}", "virginia"),))
            for shard_id in shards
        ),
        middleware=middleware,
    )
    return sim, build(sim, spec, network=network)


def keys_on_the_wire(session):
    """Each busy lane's key, read from the op its protocol client has on
    the wire."""
    return {
        lane: client._pending["operation"][1]
        for lane, client in session._clients.items()
        if session._busy[lane]
    }


def keys_per_lane(session):
    """Per lane, the keys of its queued ops and of the op on its wire.  A
    lane seen from inside its own completion callback is already idle
    and may still hold a queue."""
    wire = keys_on_the_wire(session)
    return {
        lane: {entry[1][1] for entry in queue} | ({wire[lane]} if lane in wire else set())
        for lane, queue in session._queues.items()
    }


def record_requests(cluster):
    """(sent_at, client name, key) of every request copy a client sends."""
    sent = []

    def tap(src, _dst, message):
        if isinstance(message, ClientRequest):
            sent.append((cluster.sim.now, src.name, message.body.operation[1]))

    cluster.network.taps.append(tap)
    return sent


def record_operations(cluster):
    """Per client, the operation of each request it sent, in counter
    order (retransmissions counted once)."""
    operations = {}

    def tap(src, _dst, message):
        if isinstance(message, ClientRequest):
            body = message.body
            operations.setdefault(src.name, {})[body.counter] = body.operation

    cluster.network.taps.append(tap)
    return operations


def test_second_key_does_not_wait_for_the_first():
    """Two writes to different keys of one shard, submitted together: the
    second one's session latency is the latency its protocol client
    recorded (one lane each), not the sum of both ops (about 2x)."""
    sim, cluster = build_cluster()
    session = cluster.session("u", "virginia")
    session.write("a", 1)
    session.write("b", 2)
    sim.run(until=10_000.0)
    [(_kind, _key, issued, session_latency)] = [
        record for record in session.completed if record[1] == "b"
    ]
    client_records = [
        record for client in session._clients.values() for record in client.completed
    ]
    assert len(client_records) == 2
    # The protocol client's record of "b" ends when the session's does.
    done = issued + session_latency
    _kind, _start, client_latency = min(
        client_records, key=lambda record: abs(record[1] + record[2] - done)
    )
    assert session_latency <= 1.2 * client_latency
    assert [client.name for client in session._clients.values()] == ["u@s0", "u@s0#1"]


def test_same_key_writes_never_overlap_and_complete_in_issue_order():
    """Five writes to ``k`` interleaved with writes to other keys, all
    submitted at once and more from completion callbacks: ``k``'s writes
    apply in issue order, all on one lane, each request going on the
    wire only after the previous one completed — while other keys
    overlap them.  The writes queued behind an in-flight one leave
    together as one compound request: five writes, three requests."""
    sim, cluster = build_cluster(seed=7)
    sent = record_requests(cluster)
    session = cluster.session("u", "virginia")
    results = []

    def write(key, value):
        future = session.write(key, value)
        future.add_callback(lambda result: results.append((key, value, result)))
        return future

    for index in range(3):
        write("k", index)
        write(f"other-{index}", index)
    # Late submissions from inside a completion keep the same rule.
    session.write("warm-up", 0).add_callback(
        lambda _result: (write("k", 3), write("late", 0), write("k", 4))
    )
    sim.run(until=30_000.0)

    k_results = [result for key, _value, result in results if key == "k"]
    assert k_results == [("ok", version) for version in range(1, 6)]
    k_ops = [record for record in session.completed if record[1] == "k"]
    assert len(k_ops) == 5
    finished = [issued + latency for _kind, _key, issued, latency in k_ops]
    assert finished == sorted(finished)
    k_sends = sorted({(at, client) for at, client, key in sent if key == "k"})
    assert len({client for _at, client in k_sends}) == 1  # one lane
    # k's requests: k0 alone, then k1 + k2 (queued behind it), then k3 +
    # k4 (submitted together while k1 + k2 were in flight).  Each left
    # after the previous request completed.
    starts = sorted({at for at, _client in k_sends})
    assert len(starts) == 3
    request_done = sorted(set(finished))
    assert len(request_done) == 3
    for start, previous_done in zip(starts[1:], request_done):
        assert start >= previous_done
    # Different keys did overlap: some other key's request went out
    # while a k request was in flight (one client cannot do that).
    k_windows = list(zip(starts, request_done))
    assert any(
        begin <= at < end
        for at, _client, key in sent
        if key != "k"
        for begin, end in k_windows
    )


def test_non_overlapping_session_opens_one_client_per_shard():
    """The parity anchor: a session whose ordered ops never overlap on a
    shard opens exactly one client per shard, named ``{session}@{shard}``
    — while the same ops submitted together open one lane per key."""
    sim, cluster = build_cluster(shards=("sa", "sb"))
    keys = {shard: cluster.range_map.keys_for(shard, 3) for shard in ("sa", "sb")}
    serial = cluster.session("serial", "virginia")
    order = [key for pair in zip(keys["sa"], keys["sb"]) for key in pair]

    def next_op(index=0):
        if index < len(order):
            serial.write(order[index], index).add_callback(
                lambda _result: next_op(index + 1)
            )

    next_op()
    serial.read(order[0])  # weak reads ride lane 0 and never open a lane
    sim.run(until=30_000.0)
    assert len(serial.completed) == len(order) + 1
    assert sorted(client.name for client in serial._clients.values()) == [
        "serial@sa", "serial@sb",
    ]

    burst = cluster.session("burst", "virginia")
    for index, key in enumerate(order):
        burst.write(key, index)
    sim.run(until=60_000.0)
    assert sorted(client.name for client in burst._clients.values()) == [
        "burst@sa", "burst@sa#1", "burst@sa#2", "burst@sb", "burst@sb#1", "burst@sb#2",
    ]


def test_close_with_both_lanes_busy_sheds_queue_and_retires_both_lanes():
    """close() while both lanes have an op in flight and more queued: the
    queued ops are shed at once, the in-flight ones finish, both lanes
    retire, and every per-client book drains."""
    sim, cluster = build_cluster()
    shard = cluster.shard("s0")
    session = cluster.session("u", "virginia")
    # Two keys: each key's later writes queue behind its first.
    futures = [session.write(f"k{index % 2}", index) for index in range(5)]
    assert keys_on_the_wire(session) == {"s0": "k0", "s0#1": "k1"}
    assert [entry[1][2] for entry in session._queues["s0"]] == [2, 4]
    assert [entry[1][2] for entry in session._queues["s0#1"]] == [3]
    session.close()
    for future in futures[2:]:
        assert future.done and isinstance(future.value, Rejected)
        assert future.value.reason == CLOSED
    assert session.pending_ops == 2
    sim.run(until=40_000.0)
    assert [future.value for future in futures[:2]] == [("ok", 1), ("ok", 1)]
    # Both lanes retired: clients released, retirement agreed, name freed.
    assert not cluster.sessions and not shard.clients
    assert not any(name.startswith("u@") for name in cluster.network.nodes)
    assert not cluster._pending_retirement and not cluster._retire_remaining
    assert "u" in cluster._retired_names
    sizes = irmc_book_sizes([shard])
    assert sizes["request_rx._known_subchannels"] == 0
    assert max(
        len(channels.client_loops)
        for replica in shard.agreement_replicas
        for channels in replica.groups.values()
    ) == 0


def test_k_keys_submitted_together_open_k_lanes_and_none_waits():
    """k writes to distinct keys of one shard, submitted together, open
    lanes ``@s0``, ``@s0#1`` … ``@s0#(k-1)``; no op queues, so each op's
    session latency is the latency its protocol client recorded."""
    k = 5
    sim, cluster = build_cluster()
    session = cluster.session("u", "virginia")
    for index in range(k):
        session.write(f"k{index}", index)
    assert [client.name for client in session._clients.values()] == [
        "u@s0", *(f"u@s0#{index}" for index in range(1, k))
    ]
    sim.run(until=10_000.0)
    assert len(session.completed) == k
    for lane, key in zip(session._clients, (f"k{index}" for index in range(k))):
        [(_kind, _start, client_latency)] = session._clients[lane].completed
        [(_kind, _key, _issued, session_latency)] = [
            record for record in session.completed if record[1] == key
        ]
        assert session_latency <= 1.2 * client_latency


def test_later_burst_reuses_idle_lanes_lowest_index_first():
    """Once a burst resolves its lanes are idle: a narrower burst takes
    the lowest-index ones and opens none, a wider one opens only the
    lanes beyond those already open."""
    sim, cluster = build_cluster()
    session = cluster.session("u", "virginia")

    def burst(tag, width):
        for index in range(width):
            session.write(f"{tag}{index}", index)
        in_flight = keys_on_the_wire(session)
        sim.run(until=sim.now + 10_000.0)
        return in_flight

    assert burst("a", 3) == {"s0": "a0", "s0#1": "a1", "s0#2": "a2"}
    assert burst("b", 2) == {"s0": "b0", "s0#1": "b1"}
    assert list(session._clients) == ["s0", "s0#1", "s0#2"]
    assert burst("c", 4) == {"s0": "c0", "s0#1": "c1", "s0#2": "c2", "s0#3": "c3"}
    assert list(session._clients) == ["s0", "s0#1", "s0#2", "s0#3"]


def run_random_ops(seed, n_ops=120, n_keys=6):
    """``n_ops`` ordered ops on ``n_keys`` keys of one shard at random
    instants, some issued from completions; after each submission,
    (distinct keys with an unresolved op, lanes open, most keys one lane
    holds)."""
    sim, cluster = build_cluster(seed=seed)
    session = cluster.session("u", "virginia")
    rng = random.Random(f"session-lanes:{seed}:ops")
    samples = []

    def submit(index):
        key = f"k{rng.randrange(n_keys)}"
        if rng.random() < 0.25:
            future = session.strong_read(key)
        else:
            future = session.write(key, index)
        samples.append((
            len(session._key_pending),
            len(session._clients),
            max(len(keys) for keys in keys_per_lane(session).values()),
        ))
        if rng.random() < 0.3:
            future.add_callback(lambda _result: submit(-index))

    for index in range(n_ops):
        sim.schedule_at(rng.uniform(0.0, 3_000.0), submit, index)
    sim.run(until=60_000.0)
    return session, samples


def test_lane_count_never_exceeds_peak_distinct_unresolved_keys():
    """A lane opens only when every open lane holds another key's op, so
    the lanes open never outnumber the peak of distinct unresolved keys.
    On this fixed table a lane's queued ops share the key on its wire:
    no lane ever holds two keys."""
    for seed in (1, 2, 3):
        _session, samples = run_random_ops(seed)
        peak = 0
        for unresolved, lanes, keys_on_one_lane in samples:
            peak = max(peak, unresolved)
            assert lanes <= peak
            assert keys_on_one_lane <= 1
        assert samples[-1][1] >= 2  # the run did overlap keys


def test_key_books_and_lane_queues_drain_once_all_ops_resolve():
    """Every op resolved: no key stays pinned or counted, and every lane
    is idle with an empty queue."""
    session, samples = run_random_ops(seed=4)
    assert len(session.completed) == len(samples)
    assert session._key_pending == {} and session._key_lane == {}
    assert all(not queue for queue in session._queues.values())
    assert not any(session._busy.values())
    assert all(client._pending is None for client in session._clients.values())
    assert session.pending_ops == 0


# ----------------------------------------------------------------------
# Compound requests: a lane's queued same-key run leaves as one request
# ----------------------------------------------------------------------
def test_queued_same_key_writes_leave_as_one_request():
    """k writes to one key queued behind an in-flight write leave as one
    request when the lane frees: the lane client's counter advances by
    one for all of them, and their futures resolve to the versions they
    were issued in."""
    k = 4
    sim, cluster = build_cluster()
    operations = record_operations(cluster)
    session = cluster.session("u", "virginia")
    futures = [session.write("hot", 0)]
    client = session._clients["s0"]
    assert client.counter == 1
    futures += [session.write("hot", index) for index in range(1, k + 1)]
    assert session.pending_ops == k + 1
    sim.run(until=10_000.0)
    assert client.counter == 2
    assert [future.value for future in futures] == [("ok", v) for v in range(1, k + 2)]
    assert operations["u@s0"] == {
        1: ("put", "hot", 0),
        2: ("multi", "hot", tuple(("put", "hot", index) for index in range(1, k + 1))),
    }
    assert [record[1] for record in session.completed] == ["hot"] * (k + 1)
    assert session.pending_ops == 0


def test_strong_read_ends_a_write_run():
    """A run is the ops of one kind on one key: a strong read queued
    between writes ends the write run before it and starts its own, and
    the read sees exactly the writes issued before it."""
    sim, cluster = build_cluster()
    operations = record_operations(cluster)
    session = cluster.session("u", "virginia")
    first = session.write("k", "a")
    writes = [session.write("k", value) for value in ("b", "c")]
    reads = [session.strong_read("k") for _ in range(2)]
    last = session.write("k", "d")
    sim.run(until=20_000.0)
    put, get = ("put", "k"), ("get", "k")
    assert operations["u@s0"] == {
        1: (*put, "a"),
        2: ("multi", "k", ((*put, "b"), (*put, "c"))),
        3: ("multi", "k", (get, get)),
        4: (*put, "d"),
    }
    assert [first.value, *(w.value for w in writes), last.value] == [
        ("ok", version) for version in range(1, 5)
    ]
    assert [read.value for read in reads] == [("value", "c")] * 2


def test_close_with_a_compound_in_flight_finishes_it_and_sheds_the_queue():
    """close() while a compound is on the wire and more ops queue behind
    it: the queued ops are shed at once, every member of the compound
    completes normally, and the lane then retires."""
    sim, cluster = build_cluster()
    shard = cluster.shard("s0")
    session = cluster.session("u", "virginia")
    futures = [session.write("k", index) for index in range(3)]
    seen = {}

    def close_behind_the_compound():
        seen["wire"] = session._clients["s0"]._pending["operation"]
        futures.extend(session.write("k", index) for index in (3, 4))
        session.close()
        seen["pending"] = session.pending_ops
        seen["shed"] = [future.value for future in futures[3:]]

    # k0's completion frees the lane, which sends k1 + k2 right after.
    futures[0].add_callback(
        lambda _result: sim.schedule_at(sim.now, close_behind_the_compound)
    )
    sim.run(until=40_000.0)
    assert seen["wire"] == ("multi", "k", (("put", "k", 1), ("put", "k", 2)))
    assert seen["pending"] == 2  # both members of the in-flight compound
    assert all(
        isinstance(value, Rejected) and value.reason == CLOSED for value in seen["shed"]
    )
    assert [future.value for future in futures[:3]] == [("ok", v) for v in (1, 2, 3)]
    assert not cluster.sessions and not shard.clients
    assert not cluster._pending_retirement and not cluster._retire_remaining


def test_armed_chain_books_drain_with_compounds_in_flight():
    """Behind the armed middleware chain, every member of a compound
    completes its own admission slot: once all ops resolve, admission's
    in-flight count and the session's pending ops are back to 0, and the
    SLO counters reconcile."""
    sim, cluster = build_cluster(
        middleware=(
            MiddlewareSpec.of("slo-metrics"),
            MiddlewareSpec.of("admission", depth=32),
            MiddlewareSpec.of("rate-limit", rate=150.0, burst=30.0),
            MiddlewareSpec.of("read-cache", lease_ms=300.0),
        )
    )
    session = cluster.session("u", "virginia")
    futures = []
    for index in range(12):
        key = f"hot-{index % 2}"
        futures.append(session.write(key, index))
        if index % 4 == 3:
            futures.append(session.strong_read(key))
    admission = cluster.middleware_instance("admission")
    assert admission._inflight["s0"] == session.pending_ops == len(futures)
    sim.run(until=20_000.0)
    assert all(future.done and not isinstance(future.value, Rejected) for future in futures)
    # Two keys, two lanes: each sent fewer requests than it had ops.
    assert sum(client.counter for client in session._clients.values()) < len(futures)
    assert admission._inflight["s0"] == 0
    assert session.pending_ops == 0
    snap = cluster.middleware_instance("slo-metrics").snapshot()
    offered = sum(snap["offered"].values())
    assert offered == sum(snap["completed"].values()) + sum(
        snap.get("served", {}).values()
    ) + sum(snap.get("shed", {}).values())
