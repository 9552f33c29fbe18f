"""The sharded, session-based client surface.

A :class:`Session` is the key-value face of a multi-shard cluster: every
operation names a *key*, the cluster's epoch-stamped
:class:`~repro.elastic.rangemap.RangeMap` (``Cluster.range_map``) maps
the key to its owning shard, and the session orders through protocol
clients (:class:`~repro.core.client.SpiderClient`, "lanes") opened on
demand per shard it touches: lane 0 is ``{session}@{shard_id}``, lane
``k`` ``{session}@{shard_id}#k``.

Semantics:

* **Writes** and **strong reads** are ordered operations; each protocol
  client allows one in flight at a time, so the session queues them *per
  lane*.  An op whose key still has an unresolved op joins that op's
  lane (per-key FIFO); otherwise it takes the lowest-index idle lane of
  the owning shard, or else opens the next lane.  On a fixed routing
  table an ordered op therefore queues only behind ops on its own key, a
  shard's lane count never exceeds the most keys the session had
  unresolved ops for there at once, and a session whose ordered ops
  never overlap on a shard never opens lane 1.  Across a table flip a
  key's op can wait on another key's: redirected ops queue on the new
  owner's lane 0, and a key's pinned lane may have been taken by another
  key while the key's redirected op was elsewhere.  Keys owned by
  different shards proceed in parallel as well — the scale-out axis.
* A lane still has one request in flight, but that request carries the
  lane's queued *run*: when the lane frees, every op of the head's kind
  on the head's key at the head of its queue leaves as one compound
  ``("multi", key, ops)`` (:mod:`repro.app.statemachine` executes its
  members in order), and the reply is split back into one result per
  op.  A run stops at a change of kind or key, so a strong read ends a
  write run.  No cap and no timer: a run is whatever queued while the
  lane was busy, and admission control already bounds the queue.  A
  compound shed with a redirect executed nothing, and all its members
  are redirected in order.
* **Weak reads** (:attr:`Consistency.WEAK`, the :meth:`Session.read`
  default) go straight to the owning shard's nearest execution group and
  may be served concurrently with ordered traffic, exactly like
  :meth:`SpiderClient.weak_read`.
* **Middleware** — when the spec declares a chain
  (:class:`~repro.deploy.spec.MiddlewareSpec`), every operation passes
  through the cluster's one chain, in the context of the session and
  the op's shard, before touching a queue and again on completion
  (:mod:`repro.deploy.middleware`): admission control may shed it with
  ``Rejected(OVERLOAD)``, rate limiting with ``Rejected(RATE_LIMIT)``,
  the read cache may answer it locally.  A spec without middleware skips
  these paths entirely and runs byte-identical to the pre-middleware
  session.
* :meth:`Session.close` sheds ordered operations still *queued* behind a
  lane's backlog — their futures resolve with ``Rejected(CLOSED)``
  immediately rather than executing after the caller said stop (or, in
  the pre-fix race, hanging forever) — lets in-flight operations finish,
  and then retires every lane's per-client request-channel subchannel
  (Fig. 14's channels are per-client: without retirement every replica's
  window books grow one entry per client *forever*).  A closed session
  rejects new operations; session names are single-use (the channel
  layer's bounded retirement tombstones remember old subchannels).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.app.statemachine import MULTI
from repro.deploy.middleware import CLOSED, Op, OpContext, Rejected, Served
from repro.elastic.messages import Migrating, WrongShard
from repro.elastic.rangemap import RangeMap
from repro.sim.futures import SimFuture

__all__ = ["Consistency", "Session"]


def _lane_id(shard_id: str, index: int) -> str:
    """Lane ``index`` of a shard; lane 0 is the shard id itself."""
    return shard_id if index == 0 else f"{shard_id}#{index}"


class Consistency(enum.Enum):
    """Read consistency levels (paper Section 3.3).

    ``WEAK`` — answered by the local execution group, may be stale;
    ``STRONG`` — totally ordered with all writes through agreement.
    """

    WEAK = "weak"
    STRONG = "strong"


class Session:
    """A named client session over a sharded cluster (see module docs).

    Obtained from :meth:`repro.deploy.Cluster.session`; not constructed
    directly.
    """

    def __init__(self, cluster, name: str, region: str, zone: int = 1):
        self.cluster = cluster
        self.name = name
        self.region = region
        self.zone = zone
        self.closed = False
        #: completed operations: (kind, key, issued_at, latency_ms)
        self.completed: list = []
        #: protocol clients, queues and in-flight op counts by lane id (see
        #: ``_lane_id``); ``_lane_shard`` maps each opened lane to its
        #: shard, ``_shard_lanes`` a shard to its opened lanes by index.
        self._clients: Dict[str, Any] = {}
        self._lane_shard: Dict[str, str] = {}
        self._shard_lanes: Dict[str, list] = {}
        #: queued ordered ops: (kind, operation, future, middleware Op|None)
        self._queues: Dict[str, Deque[Tuple[str, Tuple, SimFuture, Any]]] = {}
        self._busy: Dict[str, int] = {}
        self._released: set = set()
        #: per-shard middleware contexts, only populated when the spec
        #: declares a chain (the empty-chain fast path allocates nothing).
        self._contexts: Dict[str, OpContext] = {}
        # --- elastic-keyspace routing state (repro.elastic) -----------
        #: unresolved ordered ops per key, and the lane each key's
        #: unresolved ops are pinned to (a lane implies its shard).
        #: Per-key FIFO — on one shard and across a range handover —
        #: follows from the *follow-the-previous-op* rule: while any op
        #: for a key is unresolved, new ops for it join the lane the first
        #: one went to (one request in flight per lane, redirects from there
        #: happen in submission order), and only once the count drains to
        #: zero does the key pick a lane of its current owner again.
        self._key_pending: Dict[str, int] = {}
        self._key_lane: Dict[str, str] = {}
        #: runs of ordered ops rejected with ``Migrating`` mid-handover,
        #: as ``(epoch, queue entries)``, parked until the routing epoch
        #: reaches the handover's: released (in arrival order) by
        #: ``Cluster._adopt_map`` at the commit flip.
        self._parked: Deque[Tuple[int, list]] = deque()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def write(self, key: str, value: Any) -> SimFuture:
        """Linearizable ``put`` on the shard owning ``key``."""
        return self._submit_ordered("write", key, ("put", key, value))

    def read(self, key: str, consistency: Consistency = Consistency.WEAK) -> SimFuture:
        """``get`` at the requested consistency level."""
        if consistency is Consistency.STRONG:
            return self._submit_ordered("strong-read", key, ("get", key))
        self._check_open()
        shard_id = self.cluster.range_map.owner(key)
        op, answered = self._admit("weak-read", key, ("get", key), shard_id)
        if answered is not None:
            return answered
        future = self._client(shard_id).weak_read(("get", key))
        if op is not None:
            chain, ctx = self.cluster.chain, self._context(shard_id)
            future.add_callback(lambda result: chain.complete(ctx, op, result))
        self._track(future, "weak-read", key)
        return future

    def strong_read(self, key: str) -> SimFuture:
        """``get`` totally ordered with all writes (Section 3.3)."""
        return self.read(key, Consistency.STRONG)

    def close(self) -> None:
        """Retire the session.

        Ordered operations still *queued* (not in flight) are shed now:
        their futures resolve with ``Rejected(CLOSED)`` — executing them
        after the caller said stop would be wrong, and leaving them
        queued would hang their futures forever, since ``_pump`` switches
        to retirement once the session is closed.  Each lane's in-flight
        operation (if any) completes normally, after which ``_pump``
        retires that lane's request subchannel so the channel endpoints
        drop its window books.  When every underlying
        client finishes its close, the session releases the client
        objects (network registration, builder dictionaries) and itself;
        the name is released once the agreement group agrees the
        retirement (see ``Cluster._note_client_retired``)."""
        if self.closed:
            return
        self.closed = True
        for queue in self._queues.values():
            while queue:
                _kind, _operation, future, op = queue.popleft()
                self._finish(future, op, Rejected(CLOSED, by="session"))
        while self._parked:
            # Ops parked behind an in-flight handover are queued ops too:
            # shed them the same way rather than hanging their futures.
            _epoch, run = self._parked.popleft()
            for _kind, _operation, future, op in run:
                self._finish(future, op, Rejected(CLOSED, by="session"))
        for ctx in self._contexts.values():
            self.cluster.chain.close_session(ctx)
        if not self._clients:
            self.cluster._release_session(self)
            # No protocol client was ever created, so nothing downstream
            # remembers the name — release it immediately.
            self.cluster._forget_session_name(self.name)
            return
        self.cluster._expect_retirements(self.name, list(self._clients))
        for lane in list(self._clients):
            # _pump owns the finish-then-retire rule: it retires idle
            # lanes now and busy lanes at their in-flight completion.
            self._pump(lane)

    @property
    def pending_ops(self) -> int:
        """Ordered operations queued, parked, or in flight (every op of
        an in-flight compound counts)."""
        return (
            sum(len(q) for q in self._queues.values())
            + sum(len(run) for _epoch, run in self._parked)
            + sum(self._busy.values())
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"session {self.name!r} is closed")

    def _client(self, shard_id: str, lane: Optional[str] = None):
        """The protocol client of ``lane`` (default: lane 0) of
        ``shard_id``, created on first use."""
        lane = lane or shard_id
        client = self._clients.get(lane)
        if client is None:
            client = self.cluster.make_client(
                f"{self.name}@{lane}",
                self.region,
                zone=self.zone,
                shard_id=shard_id,
            )
            client.on_closed = (
                lambda closed, lane=lane: self._release_client(lane, closed)
            )
            self._clients[lane] = client
            self._lane_shard[lane] = shard_id
            self._shard_lanes.setdefault(shard_id, []).append(lane)
            self._queues[lane] = deque()
            self._busy[lane] = 0
        return client

    def _release_client(self, lane: str, client) -> None:
        """The client's close fully completed: drop every reference that
        would otherwise grow one entry per churned session forever."""
        shard = self.cluster.shard(self._lane_shard[lane])
        shard.clients.pop(client.name, None)
        self.cluster.network.unregister(client)
        self._released.add(lane)
        if self._released >= set(self._clients):
            self._clients.clear()
            self._lane_shard.clear()
            self._shard_lanes.clear()
            self._queues.clear()
            self._busy.clear()
            self._released.clear()
            self.cluster._release_session(self)

    def _pick_lane(self, shard_id: str) -> str:
        """The shard's lowest-index idle lane; else the next lane, which
        the caller opens.  Lanes open in index order, so the pick scans
        only the lanes already open."""
        lanes = self._shard_lanes.get(shard_id, ())
        for lane in lanes:
            if not self._busy[lane] and not self._queues[lane]:
                return lane
        return _lane_id(shard_id, len(lanes))

    def _context(self, shard_id: str) -> OpContext:
        ctx = self._contexts.get(shard_id)
        if ctx is None:
            ctx = self._contexts[shard_id] = OpContext(self, shard_id)
        return ctx

    def _admit(
        self, kind: str, key: str, operation: Tuple, shard_id: str
    ) -> Tuple[Optional[Op], Optional[SimFuture]]:
        """Pass an op for ``shard_id`` through the cluster's middleware chain.

        Returns ``(op, None)`` when the op goes on — ``op`` is the
        chain's :class:`Op`, or None without a chain (the empty-chain
        fast path allocates nothing) — and ``(None, future)`` when the
        chain answered it: shed before queuing (``Rejected``, never on
        the wire and not a completed operation) or served locally."""
        chain = self.cluster.chain
        if chain is None:
            return None, None
        op = Op(kind, key, operation, shard_id, self.cluster.sim.now)
        outcome = chain.admit(self._context(shard_id), op)
        if not isinstance(outcome, (Rejected, Served)):
            return outcome, None
        future = SimFuture(name=f"{self.name}.{kind}:{key}")
        if isinstance(outcome, Served):
            self._track(future, kind, key)
            outcome = outcome.value
        future.resolve(outcome)
        return None, future

    def _finish(self, future: SimFuture, op: Optional[Op], result: Any) -> None:
        """Complete ``op``'s middleware chain, then resolve ``future``.

        The chain completes in the context it was begun in
        (``op.shard_id``): after a redirect an op finishes on another
        shard's lane, and the begin/complete pair must hit the same
        per-shard context."""
        if op is not None:
            self.cluster.chain.complete(self._context(op.shard_id), op, result)
        future.try_resolve(result)

    def _submit_ordered(self, kind: str, key: str, operation: Tuple) -> SimFuture:
        self._check_open()
        # Follow-the-previous-op: a key with unresolved ordered ops joins
        # their lane even if the table flipped underneath — the old owner
        # redirects them in order, preserving per-key FIFO across a range
        # handover (see the field docs above).
        lane = self._key_lane.get(key)
        if lane is None:
            shard_id = self.cluster.range_map.owner(key)
            lane = self._pick_lane(shard_id)
        else:
            shard_id = self._lane_shard[lane]
        op, answered = self._admit(kind, key, operation, shard_id)
        if answered is not None:
            return answered
        self._client(shard_id, lane)  # ensure the lane exists
        future = SimFuture(name=f"{self.name}.{kind}:{key}")
        self._track(future, kind, key)
        self._note_issued(key, lane, future)
        self._queues[lane].append((kind, operation, future, op))
        self._pump(lane)
        return future

    def _pump(self, lane: str) -> None:
        """Send the run at the head of an idle lane's queue: every op of
        the head's kind on the head's key, as one request (a compound
        ``("multi", key, ops)`` when the run holds more than one op)."""
        if self._busy[lane]:
            return
        queue = self._queues[lane]
        if not queue:
            if self.closed:
                self._clients[lane].close_session()
            return
        run = [queue.popleft()]
        kind, operation, _outer, _op = run[0]
        key = operation[1]
        while queue and queue[0][0] == kind and queue[0][1][1] == key:
            run.append(queue.popleft())
        if len(run) > 1:
            operation = (MULTI, key, tuple(entry[1] for entry in run))
        self._busy[lane] = len(run)
        client = self._clients[lane]
        if kind == "write":
            inner = client.write(operation)
        else:
            inner = client.strong_read(operation)
        inner.add_callback(lambda result: self._on_done(lane, run, result))

    def _on_done(self, lane: str, run: list, result: Any) -> None:
        redirected = isinstance(result, (Migrating, WrongShard))
        if redirected and not self.closed:
            # The old owner ordered the run but shed it mid-handover: it
            # never executed there, so resubmitting it (to the new owner,
            # possibly after parking for the epoch bump) keeps
            # exactly-once intact.  The lane stays busy until the
            # redirect is enqueued: the ops sit in a book (busy, queued
            # or parked) at every instant, and a pump the redirect sets
            # off — parked ops released by a table it adopts, or this
            # very lane when the key's owner is this lane's shard
            # again — leaves this lane's next op to the ``_pump`` below.
            self._redirect(run, result)
            self._busy[lane] = 0
        else:
            if redirected:
                # A closed session cannot open new shard clients — shed
                # like a queued op at close instead.
                results = [Rejected(CLOSED, by="session")] * len(run)
            else:
                results = result if len(run) > 1 else (result,)
            self._busy[lane] = 0
            for (_kind, _operation, outer, op), member in zip(run, results):
                self._finish(outer, op, member)
        self._pump(lane)

    # ------------------------------------------------------------------
    # Elastic-keyspace internals (redirects, parking, key pinning)
    # ------------------------------------------------------------------
    def _redirect(self, run: list, result) -> None:
        key = run[0][1][1]
        if isinstance(result, WrongShard):
            # The redirect carries the authoritative table: adopt it (a
            # no-op if we already have a newer one — that also releases
            # any ops parked behind this very epoch, keeping them ahead
            # of the run being redirected now), then chase the new owner.
            self.cluster._adopt_map(RangeMap.from_wire(result.range_map))
        elif self.cluster.range_map.epoch < result.new_epoch:
            # Migrating and the handover is still in flight: park until
            # Cluster._adopt_map flips the table at commit.
            self._parked.append((result.new_epoch, run))
            return
        # WrongShard, or Migrating whose flip this session already
        # adopted: resubmit to the key's current owner.
        self._enqueue_redirect(self.cluster.range_map.owner(key), run)

    def _enqueue_redirect(self, shard_id: str, run: list) -> None:
        # Deliberately does NOT touch _key_lane: earlier ops for the key
        # may still be queued at the old owner, and new submissions must
        # keep lining up behind them there (they get redirected in order;
        # jumping ahead to the new owner would reorder the key).  Every
        # redirect takes the new owner's lane 0, so a key's redirect
        # stream stays one FIFO whichever lane it left.
        self._client(shard_id)
        self._queues[shard_id].extend(run)
        self._pump(shard_id)

    def _release_parked(self) -> None:
        """Resubmit parked runs whose epoch arrived (in arrival order)."""
        if not self._parked:
            return
        epoch = self.cluster.range_map.epoch
        ready: list = []
        keep: Deque = deque()
        for entry in self._parked:
            (ready if entry[0] <= epoch else keep).append(entry)
        self._parked = keep
        for _epoch, run in ready:
            self._enqueue_redirect(self.cluster.range_map.owner(run[0][1][1]), run)

    def _note_issued(self, key: str, lane: str, future: SimFuture) -> None:
        self._key_pending[key] = self._key_pending.get(key, 0) + 1
        self._key_lane.setdefault(key, lane)
        future.add_callback(lambda _result: self._note_settled(key))

    def _note_settled(self, key: str) -> None:
        remaining = self._key_pending.get(key, 0) - 1
        if remaining > 0:
            self._key_pending[key] = remaining
        else:
            # Last unresolved op for the key: unpin — the next submission
            # routes by the then-current table.
            self._key_pending.pop(key, None)
            self._key_lane.pop(key, None)

    def _track(self, future: SimFuture, kind: str, key: str) -> None:
        issued_at = self.cluster.sim.now
        future.add_callback(
            lambda _result: self.completed.append(
                (kind, key, issued_at, self.cluster.sim.now - issued_at)
            )
        )
