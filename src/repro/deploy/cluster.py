"""Spec-to-system builder and the multi-shard cluster runtime.

:func:`build` is the single constructor for every architecture in the
repo: it validates a spec and hands it to its system class — a
:class:`~repro.deploy.spec.ClusterSpec` becomes a :class:`Cluster` (one
:class:`~repro.core.Shard` per spec'd shard on a shared network), the
baseline specs become their respective systems.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.core.system import Shard
from repro.deploy.middleware import MiddlewareChain, build_middleware
from repro.deploy.session import Session
from repro.deploy.spec import BftSpec, ClusterSpec, HftSpec, ShardSpec
from repro.elastic.plan import split_moves
from repro.elastic.rangemap import RangeMap
from repro.errors import ConfigurationError
from repro.net import Network, Topology
from repro.sim.futures import SimFuture

__all__ = ["Cluster", "build"]


class Cluster:
    """A built multi-shard deployment: shards, the routing table, the
    middleware chain and the sessions over them."""

    #: how many retired session names the reuse filter remembers (bounded,
    #: matching the channel layer's bounded retirement tombstones).
    RETIRED_NAME_CAP = 256

    def __init__(self, sim, network, spec: ClusterSpec):
        self.sim = sim
        self.network = network
        self.spec = spec
        self.shards: Dict[str, Shard] = {}
        for shard_spec in spec.shards:
            self._attach(Shard(sim, network, spec, shard_spec))
        #: the epoch-stamped key -> shard table every session routes by;
        #: epoch 0 is the striped ``crc32(key) mod shards`` placement, and
        #: only ``_adopt_map`` replaces it (with a strictly newer epoch).
        self.range_map = RangeMap.modulo(self.shards)
        #: live sessions only — fully closed ones are released.  A closed
        #: session's name stays in ``_session_names`` until the agreement
        #: group agrees its clients' retirement (RetireClient), then moves
        #: into the bounded ``_retired_names`` ring: reuse of a remembered
        #: name is rejected (the channel layer's bounded tombstones still
        #: remember the old subchannels), but the books no longer grow one
        #: entry per churned session forever.
        self.sessions: Dict[str, Session] = {}
        self._session_names: set = set()
        self._retired_names: Dict[str, None] = {}
        #: client name -> session name, for sessions whose close is
        #: awaiting agreed retirement; plus a per-session countdown.
        self._pending_retirement: Dict[str, str] = {}
        self._retire_remaining: Dict[str, int] = {}
        #: the one session middleware chain, shared by every shard —
        #: shard-wide books (admission depth) key by ``op.shard_id``,
        #: per-session books by session name (None = no middleware).
        self.chain: Optional[MiddlewareChain] = (
            MiddlewareChain(
                [build_middleware(e.name, e.options_dict()) for e in spec.middleware]
            )
            if spec.middleware
            else None
        )

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    def _attach(self, shard: Shard) -> None:
        self.shards[shard.shard_id] = shard
        for replica in shard.agreement_replicas:
            replica.on_client_retired = self._note_client_retired

    def shard(self, shard_id: str) -> Shard:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ConfigurationError(
                f"no shard {shard_id!r}; known: {sorted(self.shards)}"
            ) from None

    @property
    def system(self) -> Shard:
        """The sole shard of a single-shard cluster (compat convenience)."""
        if len(self.shards) != 1:
            raise ConfigurationError(
                "Cluster.system is defined for single-shard clusters only; "
                "use cluster.shard(shard_id)"
            )
        return next(iter(self.shards.values()))

    def shard_for_key(self, key: Any) -> Shard:
        return self.shards[self.range_map.owner(key)]

    @property
    def all_nodes(self):
        nodes = []
        for shard in self.shards.values():
            nodes.extend(shard.all_nodes)
        return nodes

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def session(self, name: str, region: str, zone: int = 1) -> Session:
        """Open a :class:`~repro.deploy.session.Session` — the sharded
        key-value surface (``write`` / ``read`` / ``strong_read`` routed
        by ``range_map``).  Names are single-use: close a session
        rather than re-opening one under the same name."""
        if name in self._session_names or name in self._retired_names:
            raise ConfigurationError(f"session {name!r} already exists")
        self._session_names.add(name)
        session = Session(self, name, region, zone=zone)
        self.sessions[name] = session
        return session

    def _release_session(self, session: Session) -> None:
        self.sessions.pop(session.name, None)

    def middleware_instance(self, name: str):
        """The chain's first middleware registered under ``name``
        (metrics surface for benchmarks and tests)."""
        found = self.chain.find(name) if self.chain is not None else None
        if found is None:
            raise ConfigurationError(f"no middleware instance {name!r} in the chain")
        return found

    # ------------------------------------------------------------------
    # Retirement bookkeeping (agreed RetireClient commands)
    # ------------------------------------------------------------------
    def _expect_retirements(self, session_name: str, lanes) -> None:
        """A closing session's clients (one per opened lane, named
        ``{session}@{lane}``) await agreed retirement."""
        for lane in lanes:
            self._pending_retirement[f"{session_name}@{lane}"] = session_name
        self._retire_remaining[session_name] = len(lanes)

    def _note_client_retired(self, client_name: str) -> None:
        """An agreement replica applied an agreed RetireClient command."""
        session_name = self._pending_retirement.pop(client_name, None)
        if session_name is None:
            return
        remaining = self._retire_remaining.get(session_name, 1) - 1
        if remaining > 0:
            self._retire_remaining[session_name] = remaining
        else:
            self._retire_remaining.pop(session_name, None)
            self._forget_session_name(session_name)

    def _forget_session_name(self, session_name: str) -> None:
        """Move a name from the unbounded live set to the bounded ring."""
        self._session_names.discard(session_name)
        self._retired_names[session_name] = None
        while len(self._retired_names) > self.RETIRED_NAME_CAP:
            self._retired_names.pop(next(iter(self._retired_names)))

    def make_client(
        self,
        name: str,
        region: str,
        group_id: Optional[str] = None,
        zone: int = 1,
        shard_id: Optional[str] = None,
    ):
        """A raw protocol client bound to one shard (sessions build on
        this; direct use mirrors :meth:`repro.core.Shard.make_client`)."""
        shard = self.shard(shard_id) if shard_id else self._locate(group_id)
        return shard.make_client(name, region, group_id=group_id, zone=zone)

    def _locate(self, group_id: Optional[str]) -> Shard:
        if group_id is None:
            if len(self.shards) == 1:
                return self.system
            raise ConfigurationError(
                "multi-shard cluster: pass shard_id or group_id to make_client"
            )
        for shard in self.shards.values():
            if group_id in shard.groups:
                return shard
        raise ConfigurationError(f"no shard hosts group {group_id!r}")

    # ------------------------------------------------------------------
    # Elastic keyspace (live resharding — repro.elastic)
    # ------------------------------------------------------------------
    def move_range(
        self, range_start: int, range_end: int, src_shard: str, dst_shard: str
    ) -> SimFuture:
        """Hand slot range ``[range_start, range_end)`` from ``src_shard``
        to ``dst_shard`` under live traffic.

        Validates the declaration against the current routing table
        (``RangeMap.move`` — overlap, ownership, bounds), then drives the
        three-phase checkpoint-assisted handover through the shards'
        admin clients, each phase an ordered ``MoveRange`` command
        acknowledged by fe+1 execution replicas:

        1. **seal** (source stream): the range freezes — later ordered
           writes to it shed ``Migrating`` — and the ack carries the
           range-filtered state cut at the sealed frontier;
        2. **install** (destination stream): the cut is merged into the
           destination's application state, outside the journal;
        3. **commit** (source stream): the source drops the range and
           starts redirecting with ``WrongShard`` + the new table.

        Only then does this cluster adopt the bumped table, flipping
        every live session's routing and releasing their parked ops.
        One handover runs at a time per cluster (``SplitShard`` chains
        them); the returned future resolves with the adopted
        :class:`RangeMap`.
        """
        current = self.range_map
        new_map = current.move(range_start, range_end, src_shard, dst_shard)
        src, dst = self.shard(src_shard), self.shard(dst_shard)
        common = dict(
            range_start=range_start,
            range_end=range_end,
            src_shard=src_shard,
            dst_shard=dst_shard,
            new_epoch=new_map.epoch,
            slots=current.slots,
            threshold=self.spec.config.fe + 1,
        )
        done = SimFuture(
            name=f"move:{src_shard}->{dst_shard}:{range_start}-{range_end}"
        )

        def after_seal(payload):
            _tag, items = payload
            dst.admin.move_range(phase="install", items=tuple(items), **common
                                 ).add_callback(after_install)

        def after_install(_payload):
            src.admin.move_range(phase="commit", range_map=new_map.to_wire(), **common
                                 ).add_callback(after_commit)

        def after_commit(_payload):
            self._adopt_map(new_map)
            done.resolve(new_map)

        src.admin.move_range(phase="seal", **common).add_callback(after_seal)
        return done

    def add_shard(self, shard_spec: ShardSpec) -> Shard:
        """Materialise a new shard on the live cluster (zero slots owned).

        The spec is validated in the context of the full cluster spec
        before any node exists; the shard is built exactly like
        ``build()`` would have built it (own admin principal, prefixed
        node names) and owns no slot of the routing table — keys route
        to it only after a ``MoveRange`` hands it a range.
        """
        new_spec = replace(self.spec, shards=self.spec.shards + (shard_spec,))
        new_spec.validate()
        self.spec = new_spec
        shard = Shard(self.sim, self.network, new_spec, shard_spec)
        self._attach(shard)
        return shard

    def split_shard(self, shard_spec: ShardSpec) -> SimFuture:
        """Bring ``shard_spec`` from zero to an equal keyspace share, live.

        ``add_shard`` + the :func:`~repro.elastic.plan.split_moves` plan,
        executed as sequential ``move_range`` handovers (each one epoch
        bump).  The returned future resolves with the final
        :class:`RangeMap` once the last handover committed.
        """
        shard = self.add_shard(shard_spec)
        moves = split_moves(self.range_map, shard_spec.shard_id)
        done = SimFuture(name=f"split:{shard_spec.shard_id}")

        def run_next(index: int) -> None:
            if index >= len(moves):
                done.resolve(self.range_map)
                return
            lo, hi, src = moves[index]
            self.move_range(lo, hi, src, shard_spec.shard_id).add_callback(
                lambda _map: run_next(index + 1)
            )

        run_next(0)
        return done

    def _adopt_map(self, range_map: RangeMap) -> None:
        """Flip routing to a newer table (no-op for stale ones) and
        release every live session's ops parked behind the epoch bump."""
        if range_map.epoch <= self.range_map.epoch:
            return
        self.range_map = range_map
        for session in list(self.sessions.values()):
            session._release_parked()


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------
def build(sim, spec, network: Optional[Network] = None):
    """Materialise a spec: ``ClusterSpec -> Cluster``,
    ``BftSpec -> BftSystem``, ``HftSpec -> HftSystem``.

    The spec is validated before any node exists.  ``network`` defaults
    to a fresh :class:`~repro.net.Network` over the standard topology;
    pass one to share jitter settings with a caller's environment (the
    experiment harnesses do).
    """
    if isinstance(spec, ClusterSpec):
        system_class = Cluster
    elif isinstance(spec, (BftSpec, HftSpec)):
        # The baselines load on first use, not with every Spider deployment.
        from repro.baselines import BftSystem, HftSystem

        system_class = BftSystem if isinstance(spec, BftSpec) else HftSystem
    else:
        raise ConfigurationError(f"unknown spec type {type(spec).__name__}")
    spec.validate()
    return system_class(sim, network or Network(sim, Topology()), spec)
