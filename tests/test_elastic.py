"""Elastic keyspace determinism: the routing table is a pure function.

The ``RangeMap`` replaced ``crc32 mod N`` as the key -> shard oracle, so
its determinism guarantees carry the sharded deployment's byte-parity
story: the epoch-0 striped table must equal the historical modulo
placement entry for entry, every key must be owned by exactly one shard
at every epoch, the canonical fingerprint must be stable under entry
order and same-owner runs, and every malformed table, move or ``moves``
knob must die with :class:`~repro.errors.ConfigurationError` while the system
is still pure data.
"""

from __future__ import annotations

import zlib

import pytest

from repro.chaos import SUITES, chaos_case
from repro.core.messages import ClientRequest, Reply
from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.elastic import (
    SLOTS_PER_SHARD,
    ElasticBook,
    Migrating,
    RangeMap,
    WrongShard,
    slot_of,
    split_moves,
    validate_moves,
)
from repro.errors import ConfigurationError
from repro.experiments.common import fresh_env


# ----------------------------------------------------------------------
# epoch 0 == crc32 mod N, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
def test_striped_table_reproduces_modulo_partitioner(n_shards):
    ids = tuple(f"s{index}" for index in range(n_shards))
    range_map = RangeMap.modulo(ids)
    for index in range(500):
        key = f"key-{index}"
        digest = zlib.crc32(key.encode("utf-8"))
        assert range_map.owner(key) == ids[digest % n_shards]


def test_slot_of_is_crc32_of_str():
    assert slot_of("key-7", 16) == zlib.crc32(b"key-7") % 16
    # Non-string keys hash through str(), same as the old partitioner.
    assert slot_of(1234, 16) == zlib.crc32(b"1234") % 16


# ----------------------------------------------------------------------
# exhaustive ownership: one owner per slot, every epoch
# ----------------------------------------------------------------------
def test_every_slot_owned_by_exactly_one_shard_across_epochs():
    ids = ("sa", "sb", "sc")
    range_map = RangeMap.modulo(ids)
    tables = [range_map]
    # Walk a handover chain: each table derives the next by one move.
    for lo, hi, src, dst in [(0, 1, "sa", "sb"), (3, 4, "sa", "sc"), (1, 2, "sb", "sc")]:
        tables.append(tables[-1].move(lo, hi, src, dst))
    for epoch, table in enumerate(tables):
        assert table.epoch == epoch
        # owner_of_slot is total over the slot space...
        assignment = [table.owner_of_slot(slot) for slot in range(table.slots)]
        # ...and the per-shard views partition it exactly.
        claimed = sorted(
            slot for owner in table.owners() for slot in table.slots_of(owner)
        )
        assert claimed == list(range(table.slots))
        for owner in table.owners():
            for lo, hi in table.ranges_of(owner):
                assert assignment[lo:hi] == [owner] * (hi - lo)
        # Every key routes through its slot — no second opinion anywhere.
        for index in range(200):
            key = f"key-{index}"
            assert table.owner(key) == assignment[table.slot_of(key)]


# ----------------------------------------------------------------------
# canonical fingerprint stability
# ----------------------------------------------------------------------
def test_fingerprint_is_stable_and_order_independent():
    ids = ("sa", "sb")
    base = RangeMap.modulo(ids)
    # Pinned: the epoch-0 two-shard table is a committed identity.
    assert base.fingerprint() == RangeMap.modulo(ids).fingerprint()
    # Entry order and same-owner runs canonicalise away.
    shuffled = RangeMap(base.slots, tuple(reversed(base.entries)), epoch=0)
    verbose = RangeMap(
        base.slots,
        tuple((slot, base.owner_of_slot(slot)) for slot in range(base.slots)),
        epoch=0,
    )
    assert shuffled == base and shuffled.fingerprint() == base.fingerprint()
    assert verbose == base and verbose.fingerprint() == base.fingerprint()
    # A move produces a *different* identity (epoch and entries both count).
    moved = base.move(2, 3, "sa", "sb")
    assert moved.fingerprint() != base.fingerprint()
    # Wire roundtrip preserves identity exactly.
    assert RangeMap.from_wire(moved.to_wire()) == moved
    assert RangeMap.from_wire(moved.to_wire()).fingerprint() == moved.fingerprint()


def test_rangemap_constructor_fail_fast():
    with pytest.raises(ConfigurationError, match="at least one entry"):
        RangeMap(8, ())
    with pytest.raises(ConfigurationError, match="start at slot 0"):
        RangeMap(8, ((1, "sa"),))
    with pytest.raises(ConfigurationError, match="duplicate range start"):
        RangeMap(8, ((0, "sa"), (4, "sb"), (4, "sc")))
    # A duplicate start hidden behind a merged same-owner run must die
    # too — accepting it would let input order pick the winner.
    with pytest.raises(ConfigurationError, match="duplicate range start"):
        RangeMap(8, ((0, "sa"), (1, "sa"), (1, "sb")))
    with pytest.raises(ConfigurationError, match="outside slot space"):
        RangeMap(8, ((0, "sa"), (8, "sb")))
    with pytest.raises(ConfigurationError, match="positive int"):
        RangeMap(0, ((0, "sa"),))


def test_move_fail_fast():
    table = RangeMap.modulo(("sa", "sb"))  # sa: even slots, sb: odd
    with pytest.raises(ConfigurationError, match="belongs to 'sb', not 'sa'"):
        table.move(1, 2, "sa", "sb")
    with pytest.raises(ConfigurationError, match="outside slot space"):
        table.move(2, 2, "sa", "sb")  # empty range
    with pytest.raises(ConfigurationError, match="outside slot space"):
        table.move(14, 17, "sa", "sb")
    with pytest.raises(ConfigurationError, match="to itself"):
        table.move(2, 3, "sa", "sa")


# ----------------------------------------------------------------------
# keys_for fail-fast (the workload helper must never spin)
# ----------------------------------------------------------------------
def test_keys_for_unknown_shard_fails_fast():
    with pytest.raises(ConfigurationError, match="'sz' owns no slots in epoch 0"):
        RangeMap.modulo(("sa", "sb")).keys_for("sz", 4)


def test_keys_for_slotless_newcomer_fails_fast():
    sim, network = fresh_env(seed=3, jitter=0.0)
    spec = ClusterSpec(
        shards=(
            ShardSpec("sa", groups=(GroupSpec("ga", "virginia"),)),
            ShardSpec("sb", groups=(GroupSpec("gb", "virginia"),)),
        )
    )
    cluster = build(sim, spec, network=network)
    cluster.add_shard(ShardSpec("sc", groups=(GroupSpec("gc", "virginia"),)))
    # Built and known to the cluster, but no MoveRange handed it a slot.
    with pytest.raises(ConfigurationError, match="'sc' owns no slots in epoch 0"):
        cluster.range_map.keys_for("sc", 4)


def test_keys_for_returns_owned_keys():
    table = RangeMap.modulo(("sa", "sb"))
    keys = table.keys_for("sb", 5)
    assert len(keys) == 5
    assert all(table.owner(key) == "sb" for key in keys)


# ----------------------------------------------------------------------
# planners: split_moves and validate_moves
# ----------------------------------------------------------------------
def test_split_moves_gives_newcomer_the_prefix():
    table = RangeMap.modulo(("sa", "sb"))
    moves = split_moves(table, "sc")
    target = table.slots // 3
    # Replay the plan: each entry is one epoch bump; afterwards the
    # newcomer owns exactly the prefix slice and nobody lost anything else.
    replay = table
    for lo, hi, src in moves:
        replay = replay.move(lo, hi, src, "sc")
    assert replay.slots_of("sc") == tuple(range(target))
    assert replay.epoch == len(moves)
    for slot in range(target, table.slots):
        assert replay.owner_of_slot(slot) == table.owner_of_slot(slot)
    # Planning against the post-split table is a no-op.
    assert split_moves(replay, "sc") == []


def test_validate_moves_accepts_a_well_formed_plan():
    final = validate_moves(("sa", "sb"), [(2, 3, "sa", "sb", 1), (6, 7, "sa", "sb", 2)])
    assert final.epoch == 2
    assert final.owner_of_slot(2) == "sb" and final.owner_of_slot(6) == "sb"


@pytest.mark.parametrize(
    "moves, message",
    [
        ([(2, 3, "sa", "sz", 1)], "unknown dst shard 'sz'"),
        ([(2, 3, "sz", "sb", 1)], "unknown src shard 'sz'"),
        ([(2, 3, "sa", "sb", 2)], "not the successor"),
        ([(2, 3, "sa", "sb", 1), (2, 3, "sa", "sb", 2)], "belongs to 'sb'"),
        ([(1, 2, "sa", "sb", 1)], "belongs to 'sb'"),
        ([(2, 3, "sa")], r"expected \(lo, hi, src, dst, epoch\)"),
    ],
)
def test_validate_moves_rejects_malformed_plans(moves, message):
    with pytest.raises(ConfigurationError, match=message):
        validate_moves(("sa", "sb"), moves)


# ----------------------------------------------------------------------
# case knobs: malformed reshard plans die at chaos_case()
# ----------------------------------------------------------------------
def _reshard_case(**knobs):
    fields = dict(
        move_at_ms=4000.0, movers=1, requests_per_session=2,
        sessions_per_shard=1,
    )
    fields.update(knobs)
    return chaos_case("spider-reshard", **fields)


def test_reshard_spec_accepts_a_valid_plan():
    assert _reshard_case(moves=[[2, 3, "sa", "sb", 1]]).moves == ((2, 3, "sa", "sb", 1),)


@pytest.mark.parametrize(
    "moves, message",
    [
        ([[2, 3, "sa", "sz", 1]], "unknown dst shard 'sz'"),
        ([[2, 3, "sa", "sb", 3]], "not the successor"),
        ([[2, 3, "sa", "sb", 1], [2, 3, "sa", "sb", 2]], "belongs to 'sb'"),
        ([], "non-empty 'moves'"),
    ],
)
def test_reshard_spec_rejects_malformed_knobs(moves, message):
    with pytest.raises(ConfigurationError, match=message):
        _reshard_case(moves=moves)


def test_reshard_suite_file_validates():
    """The reshard scenario resolves through the lookup, plans replayed."""
    assert sorted(SUITES["reshard"]) == ["spider-reshard-double"]
    for config, overrides in SUITES["reshard"].values():
        assert config == "spider-reshard"
        assert chaos_case(config, **overrides).moves


# ----------------------------------------------------------------------
# the elastic book stops shedding when a range is installed back
# ----------------------------------------------------------------------
def _keys_in_slot(slot: int, slots: int, count: int) -> list:
    keys = (f"m{index}" for index in range(10_000))
    return [key for key in keys if slot_of(key, slots) == slot][:count]


def _key_in_slot(slot: int, slots: int) -> str:
    return _keys_in_slot(slot, slots, 1)[0]


def _keys_on_the_wire(session) -> dict:
    """Each busy lane's key, read from the op its protocol client has on
    the wire."""
    return {
        lane: client._pending["operation"][1]
        for lane, client in session._clients.items()
        if session._busy[lane]
    }


def test_elastic_book_uncover_narrows_overlapping_cover():
    book = ElasticBook(16)
    book.dropped[(2, 6)] = (1, ("range-map", 16, 1, ((0, "sb"),)))
    book.sealed[(8, 10)] = (2, "sb")
    book.uncover(4, 9)
    # Overlaps narrowed to the parts outside the installed interval.
    assert set(book.dropped) == {(2, 4)} and set(book.sealed) == {(9, 10)}
    # Ops in the uncovered range execute normally again...
    assert book.shed(("put", _key_in_slot(5, 16), "v")) is None
    assert book.shed(("put", _key_in_slot(8, 16), "v")) is None
    # ...while the remainders keep shedding.
    assert isinstance(book.shed(("put", _key_in_slot(3, 16), "v")), WrongShard)
    # A fully-covered record vanishes instead of narrowing to nothing.
    book.uncover(0, 16)
    assert not book.dropped and not book.sealed


@pytest.mark.parametrize("n_keys", [1, 3])
def test_move_range_there_and_back_executes_on_return(n_keys):
    """A range returned to a shard that once dropped it must execute
    again — a stale ``dropped`` record would shed every ordered op with
    an old-epoch ``WrongShard``, redirect-looping the key forever.  With
    several keys of the range, one write each before, between and after
    the two flips, every key stays exactly-once and in order, and the
    session's routing books drain once every op resolved."""
    sim, network = fresh_env(seed=3, jitter=0.0)
    spec = ClusterSpec(
        shards=(
            ShardSpec("sa", groups=(GroupSpec("ga", "virginia"),)),
            ShardSpec("sb", groups=(GroupSpec("gb", "virginia"),)),
        )
    )
    cluster = build(sim, spec, network=network)
    session = cluster.session("u1", "virginia")
    keys = _keys_in_slot(2, cluster.range_map.slots, n_keys)
    assert len(keys) == n_keys

    results = {key: [] for key in keys}

    def write_all(value):
        for key in keys:
            session.write(key, value).add_callback(results[key].append)

    write_all("home")
    cluster.move_range(2, 3, "sa", "sb")
    sim.run(until=60_000)
    write_all("away")
    cluster.move_range(2, 3, "sb", "sa")
    sim.run(until=120_000)
    assert cluster.range_map.epoch == 2
    assert all(cluster.range_map.owner(key) == "sa" for key in keys)
    write_all("back")
    sim.run(until=180_000)
    # Exactly once, in order, across both cuts — and the keys are live
    # again at their original owner rather than stuck in a redirect loop.
    for key in keys:
        assert results[key] == [("ok", 1), ("ok", 2), ("ok", 3)]
    assert session._key_pending == {} and session._key_lane == {}
    assert not session._parked
    assert not any(session._busy.values())
    assert all(not queue for queue in session._queues.values())
    assert session.pending_ops == 0


def test_wrongshard_adoption_keeps_redirected_key_frozen():
    """A ``WrongShard`` reply that is the session's *first* sight of the
    new table adopts it mid-redirect.  The key's younger queued ops must
    stay behind the older op being redirected: reaching the new owner
    ahead of it would break per-key FIFO there.  Freed by the redirect,
    the old lane may send the younger ops on as one compound — to the
    old owner, which redirects them in order behind the first."""
    sim, network = fresh_env(seed=3, jitter=0.0)
    spec = ClusterSpec(
        shards=(
            ShardSpec("sa", groups=(GroupSpec("ga", "virginia"),)),
            ShardSpec("sb", groups=(GroupSpec("gb", "virginia"),)),
        )
    )
    cluster = build(sim, spec, network=network)
    session = cluster.session("u1", "virginia")
    key = _key_in_slot(2, cluster.range_map.slots)

    f1 = session.write(key, "v1")  # goes on the wire at sa immediately
    session.write(key, "v2")       # queued behind it
    session.write(key, "v3")
    assert _keys_on_the_wire(session) == {"sa": key}
    assert [entry[1][2] for entry in session._queues["sa"]] == ["v2", "v3"]

    # sa sheds v1 with the epoch-1 table the session has never seen
    # (reachable when the admin's commit acks are delayed, e.g. by a
    # partition spanning the epoch bump).  Emulate the protocol client
    # consuming the reply before the session callback fires.
    client = session._clients["sa"]
    if client._pending["retry"] is not None:
        client._pending["retry"].cancel()
    client._pending = None
    new_map = cluster.range_map.move(2, 3, "sa", "sb")
    session._on_done(
        "sa", [("write", ("put", key, "v1"), f1, None)],
        WrongShard(epoch=new_map.epoch, range_map=new_map.to_wire()),
    )

    assert cluster.range_map.epoch == new_map.epoch  # table adopted
    # The redirected (oldest) op went to sb *first*: it is on the wire
    # there, alone, and the younger ops were NOT sent ahead of it —
    # they drain behind it through sa's redirect stream in submission
    # order, as one compound or still queued.
    on_the_wire = _keys_on_the_wire(session)
    assert on_the_wire["sb"] == key
    assert session._clients["sb"]._pending["operation"] == ("put", key, "v1")
    assert [entry[1][2] for entry in session._queues["sb"]] == []
    queued = [entry[1][2] for entry in session._queues["sa"]]
    at_sa = session._clients["sa"]._pending
    assert (
        at_sa is not None
        and at_sa["operation"] == ("multi", key, (("put", key, "v2"), ("put", key, "v3")))
        and queued == []
    ) or (at_sa is None and queued == ["v2", "v3"])


# ----------------------------------------------------------------------
# live handover: versions continue 1..n across the ownership change
# ----------------------------------------------------------------------
def _record_shed_operations(cluster) -> list:
    """Every operation a replica answered with a redirect, once per
    (client, counter)."""
    operations, shed = {}, {}

    def tap(src, dst, message):
        if isinstance(message, ClientRequest):
            operations[(src.name, message.body.counter)] = message.body.operation
        elif isinstance(message, Reply) and isinstance(message.result, (Migrating, WrongShard)):
            request = (dst.name, message.counter)
            shed.setdefault(request, operations[request])

    cluster.network.taps.append(tap)
    return shed


def _handover_keeps_per_key_fifo(n_keys: int):
    """Three writes per key of slot 2 before ``move_range(2, 3, sa, sb)``
    and three after; every key's versions must run 1..6 in issue order.
    The writes queued behind a key's first leave as one compound, which
    the old owner sheds whole: each of its members executes exactly
    once, in order, at the new owner.  Returns the session's in-flight
    keys by lane when the seal was submitted."""
    sim, network = fresh_env(seed=3, jitter=0.0)
    spec = ClusterSpec(
        shards=(
            ShardSpec("sa", groups=(GroupSpec("ga", "virginia"),)),
            ShardSpec("sb", groups=(GroupSpec("gb", "virginia"),)),
        )
    )
    cluster = build(sim, spec, network=network)
    shed = _record_shed_operations(cluster)
    session = cluster.session("u1", "virginia")
    keys = _keys_in_slot(2, cluster.range_map.slots, n_keys)
    assert all(cluster.range_map.owner(key) == "sa" for key in keys)  # even -> sa

    results = {key: [] for key in keys}
    for index in range(3):
        for key in keys:
            session.write(key, f"pre-{index}").add_callback(results[key].append)
    at_seal = _keys_on_the_wire(session)
    moved = {}
    cluster.move_range(2, 3, "sa", "sb").add_callback(
        lambda table: moved.update(epoch=table.epoch)
    )
    for index in range(3):
        for key in keys:
            session.write(key, f"post-{index}").add_callback(results[key].append)
    sim.run(until=60_000)

    assert moved == {"epoch": 1}
    for key in keys:
        assert cluster.range_map.owner(key) == "sb"
        # Exactly once, in order, across the cut: versions are 1..6.
        assert results[key] == [("ok", v) for v in range(1, 7)]
        # Among them a shed compound of the key's queued writes.
        assert any(
            operation[:2] == ("multi", key) and len(operation[2]) > 1
            for operation in shed.values()
        )
    # The pin followed the key: new submissions route straight to sb.
    session.write(keys[0], "epilogue")
    assert session._key_lane[keys[0]] == "sb"
    sim.run(until=120_000)
    return at_seal


def test_move_range_preserves_versions_and_rebalances_routing():
    _handover_keeps_per_key_fifo(n_keys=1)


def test_move_range_keeps_per_key_fifo_with_two_lanes_in_flight():
    """Two keys of the moving range in flight on the shard's two lanes
    when the seal is ordered, each with a backlog behind it."""
    at_seal = _handover_keeps_per_key_fifo(n_keys=2)
    assert sorted(at_seal) == ["sa", "sa#1"]
    assert len(set(at_seal.values())) == 2


def test_move_range_keeps_per_key_fifo_with_a_lane_per_key():
    """Three keys of the moving range in flight on three lanes (one per
    key, opened on demand) when the seal is ordered."""
    at_seal = _handover_keeps_per_key_fifo(n_keys=3)
    assert sorted(at_seal) == ["sa", "sa#1", "sa#2"]
    assert len(set(at_seal.values())) == 3
