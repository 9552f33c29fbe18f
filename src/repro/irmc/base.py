"""Shared machinery of both IRMC implementations.

An IRMC forwards messages from a group of sender replicas to a group of
receiver replicas in another region (paper Section 3.2).  Key semantics:

* **Subchannels** are independent FIFO queues addressed by position; each
  has a bounded window of ``capacity`` positions starting at 1.
* **f_s + 1 vouching** — a message is delivered only once ``f_s + 1``
  distinct senders submitted identical content for the same subchannel and
  position, so at least one correct sender vouches for it.
* **Flow control** — a sender endpoint's window advances to the
  ``f_r + 1``-highest position requested by receiver endpoints; a receiver
  endpoint's window advances on local ``move_window`` calls or once
  ``f_s + 1`` sender endpoints request it.  A sender's request rides on
  its Sends (signed ``window`` field) and one :class:`MovesMsg` heartbeat
  per receiver; a one-entry :class:`MovesMsg` is for when no Send can.
* **Seal** — an endpoint never authenticates inline: an RC Send, an SC
  share, a receiver's window Move registers with its node
  (:meth:`~repro.sim.node.Node.seal_later`), and the node seals once per
  CPU task — at the task's end, or in one flush behind the work already
  queued.  The seal sends one wire message per remote endpoint (a plain
  :class:`SendMsg` / :class:`MoveMsg` for one entry) and signs everything
  the node emits, across endpoints, with one RSA operation.  An
  endpoint's ``_emit`` hook drops what a window move, a retirement or
  ``close()`` overtook since the entry registered.
* **TooOld** — operations on positions below the window resolve with a
  :class:`TooOld` marker carrying the new lower bound, which is how trailing
  replicas learn they must fetch a checkpoint.
* **Retirement** — subchannels are client identities; when a client session
  closes, ``f_s + 1`` sender endpoints vouch a :class:`RetireMsg` and both
  sides drop every book keyed by the subchannel, so long-horizon deployments
  with churning clients keep bounded window state.

Blocking calls are futures: ``send`` and ``receive`` return a
:class:`~repro.sim.futures.SimFuture` resolving with ``"ok"`` / the message,
or with :class:`TooOld`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.primitives import attach_auth, make_mac_vector, verify_mac_vector
from repro.irmc.messages import MoveMsg, MovesMsg, RetireEcho, RetireMsg
from repro.sim.futures import SimFuture
from repro.sim.node import Timer
from repro.sim.routing import Component, RoutedNode


@dataclass(frozen=True)
class TooOld:
    """Result marker: the requested position is below the window.

    ``new_start`` is the window's new lower bound (the paper's
    ``<TooOld, p'>``).
    """

    new_start: int


#: Stored positions are bounded to ``capacity * OVERFLOW_FACTOR`` ahead of
#: the window start to cap memory under Byzantine floods.
OVERFLOW_FACTOR = 8

#: How many retired subchannels each endpoint remembers (FIFO).  The
#: tombstones answer straggler traffic for dead subchannels — a receiver
#: echoes retirement at stale Moves, a sender short-circuits stale sends
#: with TooOld — without re-growing the books retirement just dropped; the
#: bound keeps the memory independent of total client churn.
RETIRED_TOMBSTONES = 256


@dataclass
class IrmcConfig:
    """Channel-wide parameters.

    ``fs`` / ``fr`` are the numbers of Byzantine senders / receivers
    tolerated; ``capacity`` is the per-subchannel window size (the paper
    uses 2 for request channels — one in-flight request per client plus the
    next — and at least the execution checkpoint interval for commit
    channels).
    """

    fs: int = 1
    fr: int = 1
    capacity: int = 2
    #: IRMC-SC: period of Progress messages (ms).
    progress_interval_ms: float = 200.0
    #: IRMC-SC: how long a receiver waits for a certificate its peers claim
    #: exists before switching collectors (ms).
    collector_timeout_ms: float = 500.0
    #: Senders periodically re-announce their window Moves so that
    #: receivers cut off by partitions eventually learn they fell behind
    #: (the paper assumes reliable links; this heartbeat provides the
    #: equivalent over a lossy simulated network).  0 disables.
    move_heartbeat_ms: float = 500.0


class _WindowBook(dict):
    """``{subchannel: {endpoint: position}}``: the window positions remote
    endpoints requested."""

    def __init__(self, quorum_rank: int):
        super().__init__()
        # quorum_rank = f + 1: the window start is the (f+1)-highest request.
        self.quorum_rank = quorum_rank

    def record(self, subchannel: Any, endpoint: str, position: int) -> bool:
        """Note ``endpoint``'s request; True iff it raised its entry."""
        per_channel = self.setdefault(subchannel, {})
        if position > per_channel.get(endpoint, 1):
            per_channel[endpoint] = position
            return True
        return False

    def agreed_start(self, subchannel: Any, member_names: Sequence[str]) -> int:
        per_channel = self.get(subchannel, {})
        positions = sorted(
            [per_channel.get(name, 1) for name in member_names], reverse=True
        )
        if len(positions) < self.quorum_rank:
            return 1
        return positions[self.quorum_rank - 1]


#: The shapes a :class:`Book` comes in — where the subchannel sits.
BY_SUBCHANNEL = "{subchannel: v}, or a set of subchannels"
BY_POSITION = "{subchannel: {position: v}}"
BY_KEY = "{(subchannel, position): v}"


@dataclass(frozen=True)
class Book:
    """One per-subchannel store of an endpoint class, declared once.

    Each class lists what it keys by subchannel in ``BOOKS`` (base class
    first); each stays its own dict / set under attribute ``name``, so
    its insertion order is its own.  :class:`IrmcEndpoint` wipes,
    retires, purges and samples whatever is declared.
    """

    name: str
    shape: str
    #: ``subchannel in store`` means "this endpoint knows the subchannel"
    #: to the retire-vote and retire-echo guards (:meth:`IrmcEndpoint.holds`)
    evidence: bool = False


class IrmcEndpoint(Component):
    """Common state of sender and receiver endpoints, and the only
    lifecycle code: ``BOOKS`` decides a book's fate, :meth:`_every` a
    periodic timer's."""

    BOOKS: Tuple[Book, ...] = (Book("window_start", BY_SUBCHANNEL, evidence=True),)

    def __init__(
        self,
        node: RoutedNode,
        tag: str,
        local_group: Sequence[RoutedNode],
        remote_group: Sequence[RoutedNode],
        config: IrmcConfig,
    ):
        super().__init__(node, tag)
        self.local_group = list(local_group)
        self.remote_group = list(remote_group)
        self.local_names = [n.name for n in self.local_group]
        self.remote_names = [n.name for n in self.remote_group]
        self.config = config
        self.closed = False
        #: per-subchannel active window start (all windows begin at 1)
        self.window_start: Dict[Any, int] = {}
        #: bounded FIFO of retired subchannels (insertion-ordered dict);
        #: not a book: a retirement fills it and only a wipe empties it
        self._retired: Dict[Any, None] = {}
        #: the periodic timers, in creation order
        self._chains: List[Timer] = []
        node.add_recovery_hook(self._on_node_recover)
        node.add_wipe_hook(self._on_node_wipe)

    # ------------------------------------------------------------------
    # Retirement tombstones
    # ------------------------------------------------------------------
    def is_retired(self, subchannel: Any) -> bool:
        return subchannel in self._retired

    def _note_retired(self, subchannel: Any) -> None:
        self._retired[subchannel] = None
        while len(self._retired) > RETIRED_TOMBSTONES:
            self._retired.pop(next(iter(self._retired)))

    # ------------------------------------------------------------------
    # Book lifecycle: one walk over ``BOOKS`` per event
    # ------------------------------------------------------------------
    def _on_node_wipe(self) -> None:
        """Durable-state loss: every channel book reboots empty.

        Runs synchronously inside ``node.recover()`` before the recovery
        hooks, so the re-armed timer chains already see empty books.  No
        future is resolved: the waiters of parked sends and pending
        receives died with the crashed driver processes.  The tombstones
        go too — a freshly imaged machine has never heard of any client —
        which is exactly what the RetireEcho / re-vouch healing paths
        exist to repair: correct peers still hold their tombstones and
        refuse to feed the retired subchannel, so the wiped endpoint's
        books for it stay empty.
        """
        for book in self.BOOKS:
            getattr(self, book.name).clear()
        self._retired.clear()

    def _drop_subchannel(self, subchannel: Any) -> Dict[str, Any]:
        """Retirement: no book keeps an entry for ``subchannel``.  Returns
        what each held under it, by book name, for the caller to settle."""
        dropped: Dict[str, Any] = {}
        for book in self.BOOKS:
            store = getattr(self, book.name)
            if book.shape is BY_KEY:
                for key in [k for k in store if k[0] == subchannel]:
                    del store[key]
            elif isinstance(store, set):
                store.discard(subchannel)
            elif subchannel in store:
                dropped[book.name] = store.pop(subchannel)
        return dropped

    def _drop_below(self, subchannel: Any, position: int) -> None:
        """The window start moved to ``position``: drop what it passed
        (Fig. 18 L. 24); the receiver fails its pending receives first."""
        # Per request, yet walked by name: binding the stores with
        # ``cached_property`` reads ``__dict__``, which takes every later
        # attribute load on the endpoint off CPython's fast path.
        for book in self.BOOKS:
            store = getattr(self, book.name)
            if book.shape is BY_KEY:
                for key in [k for k in store if k[0] == subchannel and k[1] < position]:
                    del store[key]
            elif book.shape is BY_POSITION and subchannel in store:
                per_channel = store[subchannel]
                for old in [p for p in per_channel if p < position]:
                    del per_channel[old]
                # An emptied per-subchannel dict goes too: subchannels are
                # client identities and would accumulate without bound.
                # Not the sender's ``_buffer``: its insertion order is the
                # idle-retransmission order (retirement drops the entry).
                if not per_channel and book.name != "_buffer":
                    del store[subchannel]

    def holds(self, subchannel: Any) -> bool:
        """Whether an ``evidence`` book knows ``subchannel``: retirement
        votes and echoes count only then, so fabricated names grow no book."""
        return any(b.evidence and subchannel in getattr(self, b.name) for b in self.BOOKS)

    def book_sizes(self) -> Dict[str, int]:
        """Entries per declared book: what a bounded-state soak samples."""
        return {book.name: len(getattr(self, book.name)) for book in self.BOOKS}

    # ------------------------------------------------------------------
    # Periodic timers
    # ------------------------------------------------------------------
    def _every(self, period_ms: float, tick: Callable[[], None]) -> None:
        """Run ``tick`` every ``period_ms`` until ``close()``."""
        chain = Timer(self.node, tick, period_ms)
        self._chains.append(chain)
        chain.start()

    def _on_node_recover(self) -> None:
        """Restart the chains: a callback dropped while the node was
        crashed ends its chain for good.  A restart voids whatever the
        old chain left, so exactly one link survives either way."""
        if self.closed:
            return
        for chain in self._chains:
            chain.start()

    # ------------------------------------------------------------------
    # Window helpers
    # ------------------------------------------------------------------
    def start_of(self, subchannel: Any) -> int:
        return self.window_start.get(subchannel, 1)

    def max_of(self, subchannel: Any) -> int:
        return self.start_of(subchannel) + self.config.capacity - 1

    def storable(self, subchannel: Any, position: int) -> bool:
        """Positions we are willing to buffer (bounded look-ahead)."""
        if self.is_retired(subchannel):
            # Never regrow books for a retired subchannel: straggler
            # duplicates of a churned client must stay bookless.
            return False
        start = self.start_of(subchannel)
        limit = start + self.config.capacity * OVERFLOW_FACTOR
        return start <= position < limit

    # ------------------------------------------------------------------
    # MAC-authenticated messages (Moves, retirement, Select, Progress)
    # ------------------------------------------------------------------
    def _authenticated(self, body: Any) -> Any:
        """``body`` under this endpoint's MAC vector for the remote group."""
        return attach_auth(
            body, auth=make_mac_vector(self.node.name, self.remote_names, body)
        )

    def _from_remote_group(self, message: Any) -> bool:
        if message.sender not in self.remote_names:
            return False
        return verify_mac_vector(message.auth, message, message.sender, self.node.name)

    def close(self) -> None:
        self.closed = True
        for chain in self._chains:
            chain.cancel()
        self.node.remove_recovery_hook(self._on_node_recover)
        self.node.remove_wipe_hook(self._on_node_wipe)
        super().close()


class SenderEndpointBase(IrmcEndpoint):
    """Sender-side window handling shared by IRMC-RC and IRMC-SC.

    The active window is governed by receiver Moves: its start is the
    ``f_r + 1``-highest position any receiver requested (Fig. 18 L. 22).
    """

    BOOKS = IrmcEndpoint.BOOKS + (
        Book("_receiver_moves", BY_SUBCHANNEL, evidence=True),
        Book("_own_moves", BY_SUBCHANNEL, evidence=True),
        Book("_parked", BY_SUBCHANNEL, evidence=True),
        Book("_buffer", BY_POSITION, evidence=True),
        Book("_retire_echoes", BY_SUBCHANNEL),
    )

    def __init__(self, node, tag, local_group, remote_group, config):
        super().__init__(node, tag, local_group, remote_group, config)
        self._receiver_moves = _WindowBook(quorum_rank=config.fr + 1)
        self._own_moves: Dict[Any, int] = {}
        #: sends parked until the window reaches their position:
        #: subchannel -> list of (position, payload, future)
        self._parked: Dict[Any, List[Tuple[int, Any, SimFuture]]] = {}
        #: positions accepted into the window, the wire messages that
        #: carried more than one of them, and the most one carried
        self.sent_count = 0
        self.bundles_sent = 0
        self.largest_bundle = 0
        #: the signed wire message that carried each in-window position,
        #: kept for retransmission (the paper assumes reliable links;
        #: Fig. 18 L. 24 garbage-collects buffered messages only once the
        #: window moves past them).
        self._buffer: Dict[Any, Dict[int, Any]] = {}
        self._activity = False
        self._idle_rounds = 0
        #: optional callback fired when a subchannel retires locally;
        #: Spider's execution replicas use it to drop the client's
        #: forwarded-counter entry alongside the channel books.
        self.on_subchannel_retired = None
        #: distinct receivers echoing that a subchannel is retired their
        #: side (see RetireEcho); at ``f_r + 1`` we retire it here too.
        self._retire_echoes: Dict[Any, set] = {}
        if config.move_heartbeat_ms > 0:
            self._every(config.move_heartbeat_ms, self._heartbeat)

    def _heartbeat(self) -> None:
        if self._own_moves:
            self._announce_moves(tuple(self._own_moves.items()))
        # Idle-channel recovery: if nothing moved since the last heartbeat
        # yet undelivered messages sit in the window, retransmit them (the
        # reliable-transport equivalent over a lossy simulated network).
        # Exponential backoff bounds the chatter on permanently idle
        # channels: retransmit on idle rounds 1, 2, 4, 8, ...
        if self._activity:
            self._idle_rounds = 0
        else:
            self._idle_rounds += 1
            if self._idle_rounds & (self._idle_rounds - 1) == 0:
                for subchannel, entries in self._buffer.items():
                    start = self.start_of(subchannel)
                    for position in sorted(entries):
                        if position >= start:
                            self._retransmit(subchannel, position, entries[position])
        self._activity = False

    def _on_node_wipe(self) -> None:
        super()._on_node_wipe()
        self._activity = False
        self._idle_rounds = 0

    # -- public API (paper Fig. 14) -----------------------------------
    def send(self, subchannel: Any, position: int, payload: Any, window: int = 0) -> SimFuture:
        """Submit ``payload`` at ``position``; resolves "ok" or TooOld.

        ``window`` also requests a :meth:`move_window` to that position,
        riding on the Send itself; it costs a message of its own only when
        the Send cannot go out now.
        """
        future = SimFuture(name="irmc.send")
        if self.closed or self.is_retired(subchannel):
            # A retired subchannel never accepts traffic again: a
            # straggler duplicate of a churned client's last request must
            # not re-open the books every endpoint just dropped.
            future.resolve(TooOld(self.start_of(subchannel)))
            return future
        start = self.start_of(subchannel)
        self._activity = True
        if start <= position <= self.max_of(subchannel):
            self._raise_own_move(subchannel, window)
            self._offer(subchannel, position, payload, future)
            return future
        if window:
            self.move_window(subchannel, window)  # no Send can carry it
        if position < start:
            future.resolve(TooOld(start))
        else:
            self._parked.setdefault(subchannel, []).append((position, payload, future))
        return future

    def _offer(self, subchannel: Any, position: int, payload: Any, future: SimFuture) -> None:
        """Accept an in-window send; "ok" means accepted, not yet signed."""
        self._transmit(subchannel, position, payload)
        self.sent_count += 1
        future.resolve("ok")

    def move_window(self, subchannel: Any, position: int) -> None:
        """Ask the receiver side to advance the window (Fig. 18 L. 10-14)."""
        if self.closed or self.is_retired(subchannel):
            return
        if self._raise_own_move(subchannel, position):
            self._announce_moves(((subchannel, position),))

    def _raise_own_move(self, subchannel: Any, position: int) -> bool:
        """Note our own Move request; True iff it is news."""
        if position <= self._own_moves.get(subchannel, 0):
            return False
        self._own_moves[subchannel] = position
        return True

    def _announce_moves(self, positions: Tuple[Tuple[Any, int], ...]) -> None:
        """One :class:`MovesMsg` under one MAC vector to every receiver."""
        moves = self._authenticated(MovesMsg(self.tag, positions, self.node.name))
        for receiver in self.remote_group:
            self.send_msg(receiver, moves)

    def retire_subchannel(self, subchannel: Any) -> None:
        """Permanently drop one subchannel (the client's session closed).

        Announces the retirement to every receiver endpoint (they retire
        once ``f_s + 1`` senders vouch), then drops every sender-side book
        keyed by the subchannel and leaves a bounded tombstone behind.
        Without this, long-running deployments grow one window-book entry
        per client *forever* — retirement is what keeps churning-client
        workloads bounded.  Parked sends (the client cannot have any in a
        clean close) resolve with :class:`TooOld`.  Idempotent: a second
        retirement of the same subchannel (e.g. via an agreed
        RetireClient command after the CloseSession already landed here)
        is a silent no-op.
        """
        if self.closed or self.is_retired(subchannel):
            return
        message = self._authenticated(
            RetireMsg(tag=self.tag, subchannel=subchannel, sender=self.node.name)
        )
        for receiver in self.remote_group:
            self.send_msg(receiver, message)
        start = self.start_of(subchannel)
        for _position, _payload, future in self._drop_subchannel(subchannel).get("_parked", ()):
            future.try_resolve(TooOld(start))
        self._note_retired(subchannel)
        if self.on_subchannel_retired is not None:
            self.on_subchannel_retired(subchannel)

    # -- implementation hooks ------------------------------------------
    def _transmit(self, subchannel: Any, position: int, payload: Any) -> None:
        """Sign and send ``payload`` (stamped with this endpoint's own
        Move as ``window``), leaving the wire message in ``_buffer``."""
        raise NotImplementedError

    def _retransmit(self, subchannel: Any, position: int, message: Any) -> None:
        """Re-offer a buffered wire message as it is."""
        for receiver in self.remote_group:
            self.send_msg(receiver, message)

    def send_msg(self, dst, message) -> None:
        self.node.send(dst, message)

    # -- receiver Move processing --------------------------------------
    def _on_receiver_move(self, message: Any) -> None:
        """A receiver's window Moves: one :class:`MoveMsg`, or the
        :class:`MovesMsg` of one seal, under one MAC vector."""
        if isinstance(message, MoveMsg):
            moves = ((message.subchannel, message.position, message.collector),)
        else:
            moves = message.positions
        # As with surplus Sends: a Move that can advance nothing — no
        # collector choice, every entry retired or not above our window
        # start — is dropped before its MAC is looked at.
        if all(
            collector is None
            and (position <= self.start_of(subchannel) or self.is_retired(subchannel))
            for subchannel, position, collector in moves
        ):
            return
        if not self._from_remote_group(message):
            return
        for subchannel, position, collector in moves:
            if not self.is_retired(subchannel):
                self._note_collector(subchannel, message.sender, collector)
                self._follow_receiver(subchannel, message.sender, position)

    def _note_collector(self, subchannel: Any, receiver: str, collector: Optional[str]) -> None:
        """A receiver's collector choice rode on its Move (IRMC-SC hook)."""

    def _follow_receiver(self, subchannel: Any, receiver: str, position: int) -> None:
        self._receiver_moves.record(subchannel, receiver, position)
        new_start = self._receiver_moves.agreed_start(subchannel, self.remote_names)
        if new_start > self.start_of(subchannel):
            self._activity = True
            self.window_start[subchannel] = new_start
            self._drop_below(subchannel, new_start)
            self._release_parked(subchannel)

    def _release_parked(self, subchannel: Any) -> None:
        parked = self._parked.get(subchannel)
        if not parked:
            return
        start = self.start_of(subchannel)
        window_max = self.max_of(subchannel)
        still_parked: List[Tuple[int, Any, SimFuture]] = []
        for position, payload, future in parked:
            if position < start:
                future.resolve(TooOld(start))
            elif position <= window_max:
                self._offer(subchannel, position, payload, future)
            else:
                still_parked.append((position, payload, future))
        if still_parked:
            self._parked[subchannel] = still_parked
        else:
            self._parked.pop(subchannel, None)

    # -- retirement echoes (straggler healing) --------------------------
    def _on_retire_echo(self, message: RetireEcho) -> None:
        """Retire once ``f_r + 1`` receivers say the subchannel is gone.

        The healing path for a sender that was down across a client's
        *entire* CloseSession announcement window: on recovery it still
        holds the dead subchannel's books and re-announces its window
        Move from every heartbeat, forever.  Receivers that already
        retired the subchannel (they hold a bounded tombstone) answer
        each such stale Move with a :class:`RetireEcho`; at ``f_r + 1``
        distinct receivers — the same quorum the sender's window already
        trusts for receiver Moves, so no coalition of ``f_r`` Byzantine
        receivers can retire a live client — the straggler retires its
        own books too.  Echoes are only tracked for subchannels this
        endpoint actually holds state for, so fabricated echoes cannot
        grow ``_retire_echoes``.
        """
        if not self._from_remote_group(message):
            return
        subchannel = message.subchannel
        if self.is_retired(subchannel):
            return
        if not self.holds(subchannel):
            return
        echoes = self._retire_echoes.setdefault(subchannel, set())
        echoes.add(message.sender)
        if len(echoes) >= self.config.fr + 1:
            self.retire_subchannel(subchannel)


class ReceiverEndpointBase(IrmcEndpoint):
    """Receiver-side window handling shared by IRMC-RC and IRMC-SC."""

    BOOKS = IrmcEndpoint.BOOKS + (
        Book("_sender_moves", BY_SUBCHANNEL, evidence=True),
        Book("_delivered", BY_POSITION),
        Book("_waiters", BY_POSITION),
        Book("_known_subchannels", BY_SUBCHANNEL, evidence=True),
        Book("_retire_votes", BY_SUBCHANNEL),
    )

    def __init__(self, node, tag, local_group, remote_group, config):
        super().__init__(node, tag, local_group, remote_group, config)
        self._sender_moves = _WindowBook(quorum_rank=config.fs + 1)
        #: delivered payloads: subchannel -> position -> payload
        self._delivered: Dict[Any, Dict[int, Any]] = {}
        #: outstanding receive calls: subchannel -> position -> [futures]
        self._waiters: Dict[Any, Dict[int, List[SimFuture]]] = {}
        self.delivered_count = 0
        #: optional callback fired once per previously unseen subchannel;
        #: Spider's agreement replicas use it to spawn per-client loops.
        self.on_new_subchannel = None
        self._known_subchannels: set = set()
        #: optional callback fired when a subchannel retires (fs+1-vouched);
        #: Spider's agreement replicas use it to stop the per-client loop.
        self.on_subchannel_retired = None
        #: distinct senders vouching for a subchannel's retirement
        self._retire_votes: Dict[Any, set] = {}

    def _note_subchannel(self, subchannel: Any) -> None:
        """Fire ``on_new_subchannel`` exactly once per subchannel.

        Called from :meth:`_deliver` only — i.e. after ``f_s + 1`` distinct
        senders vouched for a message — never on bare receipt.  Consumers
        spawn per-subchannel work (Spider's agreement replicas start one
        client loop each), so reacting to unvouched traffic would let a
        single Byzantine sender fabricate unbounded subchannels and flood
        the receiver with loops it can never retire.
        """
        if subchannel in self._known_subchannels:
            return
        self._known_subchannels.add(subchannel)
        if self.on_new_subchannel is not None:
            self.on_new_subchannel(subchannel)

    # -- public API (paper Fig. 14) -----------------------------------
    def receive(self, subchannel: Any, position: int) -> SimFuture:
        """Await the message at ``position``; resolves payload or TooOld."""
        future = SimFuture(name="irmc.recv")
        start = self.start_of(subchannel)
        if position < start:
            future.resolve(TooOld(start))
            return future
        ready = self._delivered.get(subchannel, {}).get(position)
        if ready is not None:
            future.resolve(ready)
            return future
        self._waiters.setdefault(subchannel, {}).setdefault(position, []).append(future)
        return future

    def move_window(self, subchannel: Any, position: int) -> None:
        """Advance the local window at once and tell the senders
        (Fig. 18 L. 38-43) in the node's next seal."""
        if self.closed or position <= self.start_of(subchannel):
            return
        self.node.seal_later(self._emit, (subchannel, position, self._collector_for(subchannel)))
        self._advance_window(subchannel, position)

    def _emit(self, entries: List[Tuple[Any, int, Optional[str]]]) -> Tuple:
        # A subchannel that moved twice before the seal announces its last.
        moves = {e[0]: e for e in entries if not self.is_retired(e[0])}
        if self.closed or not moves:
            return ()
        if len(moves) == 1:
            ((subchannel, position, collector),) = moves.values()
            body: Any = MoveMsg(self.tag, subchannel, position, self.node.name, collector)
        else:
            body = MovesMsg(self.tag, tuple(moves.values()), self.node.name)
        move = self._authenticated(body)
        for sender in self.remote_group:
            self.node.send(sender, move)
        return ()  # MAC-authenticated: nothing for the seal to sign

    # -- shared internals ----------------------------------------------
    def _collector_for(self, subchannel: Any) -> Optional[str]:
        return None

    def _advance_window(self, subchannel: Any, position: int) -> None:
        if position <= self.start_of(subchannel):
            return
        self.window_start[subchannel] = position
        waiters = self._waiters.get(subchannel, {})
        for old in [p for p in waiters if p < position]:
            for future in waiters.pop(old):
                future.try_resolve(TooOld(position))
        self._drop_below(subchannel, position)

    def _on_sender_move(self, message: MovesMsg) -> None:
        """A sender's explicit Moves: a bare ``move_window`` or its heartbeat."""
        if not self._from_remote_group(message):
            return
        for subchannel, position in message.positions:
            self._note_sender_move(subchannel, message.sender, position)

    def _note_sender_move(self, subchannel: Any, sender: str, position: int) -> None:
        """Record ``sender``'s authenticated Move request, however it
        arrived (explicit, heartbeat entry, ``window`` of a Send)."""
        if self.is_retired(subchannel):
            # A Move for a subchannel we already retired can only come
            # from a straggling sender that slept through the client's
            # close — tell it so instead of re-growing the Move book.
            self._echo_retirement(subchannel, sender)
            return
        if not self._sender_moves.record(subchannel, sender, position):
            return  # nothing new: the agreed start cannot have changed
        agreed = self._sender_moves.agreed_start(subchannel, self.remote_names)
        if agreed > self.start_of(subchannel):
            # fs+1 senders vouch for the move: adopt it and confirm to the
            # sender side so their windows advance too (Fig. 18 L. 50-57).
            self.move_window(subchannel, agreed)

    # -- subchannel retirement (client sessions closing) ----------------
    def _on_retire(self, message: RetireMsg) -> None:
        """Count retirement vouchers; retire at ``f_s + 1`` distinct senders.

        Votes are only tracked for subchannels this endpoint actually
        holds state for (vouched-delivered at least once, a moved window,
        or recorded sender Moves), so a Byzantine sender cannot grow
        ``_retire_votes`` with fabricated subchannel names — the very
        leak retirement exists to prevent.  The ``_sender_moves`` arm
        matters for healing: a sender that was crashed during the close
        re-announces its window Move on recovery, and the client's
        repeated CloseSession announcements then let the sender group
        re-vouch the retirement and sweep the stale entry out.  A sender
        down past *all* announcements is healed by the tombstone path
        instead: its stale Moves bounce off retired receivers as
        :class:`RetireEcho` replies (see :meth:`_on_sender_move` and
        ``SenderEndpointBase._on_retire_echo``), so its books and Move
        heartbeat retire at ``f_r + 1`` echoes without any client help.
        """
        if not self._from_remote_group(message):
            return
        subchannel = message.subchannel
        if self.is_retired(subchannel):
            # Already retired here; nothing to vote on, and no book may
            # regrow.  (The vouching sender got our echo if it asked.)
            return
        # A sender's signed retirement vouch supersedes its own recorded
        # window Moves: prune its contribution so a subchannel whose only
        # trace is Moves from senders that have since vouched retirement
        # does not hold the Move book open forever (the straggler-Move
        # leak a wiped-then-healed restart would otherwise exhibit).
        per_channel = self._sender_moves.get(subchannel)
        if per_channel is not None:
            per_channel.pop(message.sender, None)
            if not per_channel:
                del self._sender_moves[subchannel]
        if not self.holds(subchannel):
            self._retire_votes.pop(subchannel, None)
            return
        votes = self._retire_votes.setdefault(subchannel, set())
        votes.add(message.sender)
        if len(votes) >= self.config.fs + 1:
            self._retire_subchannel(subchannel)

    def _retire_subchannel(self, subchannel: Any) -> None:
        """Drop every receiver-side book keyed by a retired subchannel.

        Fires ``on_subchannel_retired`` *first* so the consumer can stop
        its per-subchannel driver (Spider stops the client loop) before
        the remaining waiters resolve with :class:`TooOld` — resolution
        is then inert for the stopped loop, and no future for the
        subchannel can dangle unresolved.
        """
        if self.on_subchannel_retired is not None:
            self.on_subchannel_retired(subchannel)
        start = self.start_of(subchannel)
        for futures in self._drop_subchannel(subchannel).get("_waiters", {}).values():
            for future in futures:
                future.try_resolve(TooOld(start))
        self._note_retired(subchannel)

    def _echo_retirement(self, subchannel: Any, sender: str) -> None:
        """Answer a stale Move for a retired subchannel with a RetireEcho."""
        message = self._authenticated(
            RetireEcho(tag=self.tag, subchannel=subchannel, sender=self.node.name)
        )
        for sender_node in self.remote_group:
            if sender_node.name == sender:
                self.node.send(sender_node, message)
                return

    def _deliver(self, subchannel: Any, position: int, payload: Any) -> None:
        if position < self.start_of(subchannel):
            return
        delivered = self._delivered.setdefault(subchannel, {})
        if position in delivered:
            return
        self._note_subchannel(subchannel)
        delivered[position] = payload
        self.delivered_count += 1
        waiters = self._waiters.get(subchannel, {}).pop(position, None)
        if waiters:
            for future in waiters:
                future.try_resolve(payload)
