"""Spider protocol messages (paper Figs. 5 and 15-17)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto.primitives import Mac, MacVector, Signature
from repro.net.message import Message

#: Request kinds.
WRITE = "write"
STRONG_READ = "strong-read"


@dataclass(frozen=True)
class RequestBody(Message):
    """``<Write, w, c, t_c>`` — the client-signed core of a request.

    ``kind`` distinguishes writes from strongly consistent reads; both
    follow the same path through the system (Section 3.3).
    """

    operation: Tuple
    client: str
    counter: int
    kind: str = WRITE

    def signed_content(self) -> Tuple:
        return ("req", self.operation, self.client, self.counter, self.kind)

    def payload_size(self) -> int:
        return 16 + len(repr(self.operation))


@dataclass(frozen=True)
class ClientRequest(Message):
    """A request as transmitted from client to execution group:
    ``mac_{c,E}(sign_c(<Write, w, c, t_c>))``."""

    body: RequestBody
    signature: Optional[Signature]
    auth: Optional[MacVector]
    group: str

    def payload_size(self) -> int:
        return (
            self.body.payload_size()
            + 128
            + (self.auth.size_bytes() if self.auth else 0)
        )


@dataclass(frozen=True)
class RequestWrapper(Message):
    """``<Request, r, e>`` — a validated request forwarded via the request
    channel by execution group ``group``."""

    body: RequestBody
    signature: Optional[Signature]
    group: str

    def signed_content(self) -> Tuple:
        return ("wrap", self.body.signed_content(), self.group)

    def payload_size(self) -> int:
        return self.body.payload_size() + 128 + 8


#: The slot an agreed item that must not execute leaves behind: an old or
#: duplicate request (Fig. 17 L. 30), a consensus no-op, a rejected command.
NOOP_SLOT: Tuple = ("noop",)


@dataclass(frozen=True)
class Execute(Message):
    """``<Execute, r, s>`` — the agreed value at sequence number ``seq``.

    An Execute carries one *slot* per agreed item, in agreed order: the
    :class:`RequestWrapper` itself, or a placeholder tuple — ``("noop",)``,
    ``("read", client, counter)`` for a strongly consistent read at
    execution groups other than the client's (Section 3.3),
    ``("retire", client)``, a ``MoveRange`` marker.  On the wire the slots
    take one of three shapes, which only :meth:`of` writes and only
    :meth:`slots` reads: a lone value travels as ``request`` or
    ``placeholder``; a :class:`~repro.consensus.interface.Batch` travels as
    ``batch`` (one Execute per sequence number amortises the commit
    channel's per-message cost over the batch) — also a batch of one,
    because simulated hashing is charged by content length and the two
    forms differ in length.
    """

    seq: int
    request: Optional[RequestWrapper]
    placeholder: Optional[Tuple] = None
    batch: Optional[Tuple] = None

    @classmethod
    def of(cls, seq: int, slots, batched: bool) -> "Execute":
        """The Execute carrying ``slots``; unbatched, there is exactly one."""
        if batched:
            return cls(seq=seq, request=None, batch=tuple(slots))
        (slot,) = slots
        if isinstance(slot, RequestWrapper):
            return cls(seq=seq, request=slot)
        return cls(seq=seq, request=None, placeholder=slot)

    def slots(self) -> Tuple:
        """The agreed items in order, whatever the wire shape."""
        if self.batch is not None:
            return self.batch
        return (self.request if self.request is not None else self.placeholder,)

    def __repr__(self) -> str:
        # Reprs feed digests and simulated hashing costs; omit the batch
        # field when unused so batch_size=1 stays byte-identical to the
        # pre-batching wire format.
        base = (
            f"Execute(seq={self.seq!r}, request={self.request!r}, "
            f"placeholder={self.placeholder!r}"
        )
        if self.batch is None:
            return base + ")"
        return base + f", batch={self.batch!r})"

    def payload_size(self) -> int:
        return 8 + sum(
            slot.payload_size() if isinstance(slot, Message) else 24
            for slot in self.slots()
        )


@dataclass(frozen=True)
class Reply(Message):
    """``<Result, u_c, t_c>`` — one execution replica's reply to a client."""

    result: Any
    counter: int
    sender: str
    group: str
    mac: Optional[Mac] = None

    def signed_content(self) -> Tuple:
        return ("reply", repr(self.result), self.counter, self.sender, self.group)

    def payload_size(self) -> int:
        return 16 + len(repr(self.result)) + 32


@dataclass(frozen=True)
class WeakRead(Message):
    """A weakly consistent read, answered directly by an execution group."""

    operation: Tuple
    client: str
    nonce: int
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("weak-read", self.operation, self.client, self.nonce)

    def payload_size(self) -> int:
        return 16 + len(repr(self.operation)) + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class WeakReadReply(Message):
    result: Any
    nonce: int
    sender: str
    mac: Optional[Mac] = None

    def signed_content(self) -> Tuple:
        return ("weak-reply", repr(self.result), self.nonce, self.sender)

    def payload_size(self) -> int:
        return 16 + len(repr(self.result)) + 32


@dataclass(frozen=True)
class CloseSession(Message):
    """A client retires its request subchannel (session close).

    Signed by the client and MAC'd towards its execution group; each
    execution replica then retires the client's request-channel
    subchannel (and propagates the retirement towards the agreement
    group, which stops the per-client loop).  ``counter`` pins the
    client's final request counter — a close is only honoured for the
    session's live counter frontier, so a replayed old CloseSession
    cannot retire a session that kept running.
    """

    client: str
    counter: int
    signature: Optional[Signature] = None
    auth: Optional[MacVector] = None

    def signed_content(self) -> Tuple:
        return ("close-session", self.client, self.counter)

    def payload_size(self) -> int:
        return 16 + 128 + (self.auth.size_bytes() if self.auth else 0)


@dataclass(frozen=True)
class RetireClient(Message):
    """``<RetireClient, c, t>`` — agree on a closed client's retirement.

    Escalated by execution replicas when they process a
    :class:`CloseSession`, and ordered through agreement like any other
    command: once agreed, every agreement replica drops the client's
    ``t`` / ``t+`` counters and reply-cache entries and retires its
    request-channel receiver books — the per-client state that would
    otherwise grow forever under session churn.  Authorisation rides in
    ``close_signature``: the client's own signature over the matching
    ``CloseSession`` content, so *any* node may submit the command but
    none can forge one for a live client.  Deliberately carries no
    submitter field — identical escalations from every execution replica
    have identical ``repr`` and deduplicate in the ordering layer's
    payload cache instead of agreeing the same retirement three times.
    """

    #: never batched: retirement mutates the per-client books that batch
    #: classification itself consults, so it must sit on its own sequence
    #: number (like reconfiguration commands).
    BATCHABLE = False

    client: str
    counter: int
    close_signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return ("retire-client", self.client, self.counter)

    def payload_size(self) -> int:
        return 16 + 128


# ----------------------------------------------------------------------
# Reconfiguration (Section 3.6) and the execution-replica registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AddGroup(Message):
    """``<AddGroup, e, E>`` submitted by a privileged admin client."""

    #: never packed into a request batch: the command changes the group set
    #: mid-sequence, which would desynchronise per-group Execute variants.
    BATCHABLE = False

    group: str
    members: Tuple[str, ...]
    admin: str
    nonce: int
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return ("add-group", self.group, self.members, self.admin, self.nonce)

    def payload_size(self) -> int:
        return 16 + 32 * len(self.members) + 128


@dataclass(frozen=True)
class RemoveGroup(Message):
    """``<RemoveGroup, e>`` submitted by a privileged admin client."""

    BATCHABLE = False  # see AddGroup

    group: str
    admin: str
    nonce: int
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return ("remove-group", self.group, self.admin, self.nonce)

    def payload_size(self) -> int:
        return 24 + 128


@dataclass(frozen=True)
class RegistryQuery(Message):
    """A client asks the agreement group for the active execution groups."""

    client: str
    nonce: int

    def payload_size(self) -> int:
        return 16


@dataclass(frozen=True)
class RegistryInfo(Message):
    """One agreement replica's signed view of the registry."""

    groups: Tuple[Tuple[str, Tuple[str, ...]], ...]
    nonce: int
    sender: str
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return ("registry", self.groups, self.nonce, self.sender)

    def payload_size(self) -> int:
        return 16 + sum(8 + 32 * len(members) for _, members in self.groups) + 128
