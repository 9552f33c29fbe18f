"""Structural signatures, MACs and digests.

A digest is a stable 64-bit integer computed from the ``repr`` of the signed
object; protocol messages are dataclasses with deterministic reprs, so equal
message contents produce equal digests across nodes, while any Byzantine
mutation of a field changes the digest and fails verification.

Sealed messages
---------------
A message's ``repr`` is its simulated wire form.  Computing it plus two
CRC passes dominates the simulator's wall-clock on crypto-heavy
workloads, and the *same* message is typically digested many times (once
per receiver, once per retransmission, once per quorum check).  Every
:class:`Message` is therefore sealed once built: a field is never rebound
in place, a changed message is a new object (``dataclasses.replace``),
and field values are treated as frozen too.  Each message memoises its
repr, its wire size and its two digests (of the repr and of
``signed_content()``), one instance-dict slot each, filled on first use
and never re-checked.  A memo cannot go stale because a message is
sealed: lint P202 rejects ``object.__setattr__`` outside this module, the
mutation-after-send sanitizer catches a rebind of a message in flight,
and Byzantine behaviours build tampered copies with
``dataclasses.replace``, whose copy starts with empty memos.

A memoised value is bit-identical to the ``repr``-based one, and the
simulated hashing cost is still charged **per call** (using the stored
encoding length), so simulated time, reply traces and replay are
unchanged — only wall-clock time drops.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields, replace as dataclass_replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto import costs as _costs
from repro.sim import node as _node
from repro.sim.node import charge

SIGNATURE_BYTES = 128  # 1024-bit RSA
MAC_BYTES = 32  # HMAC-SHA-256

_crc32 = zlib.crc32
_HIGH_SALT = 0x9E3779B9


#: Instance-dict slots holding ``(digest, kb length)``.
_REPR_SLOT = "_memo_repr_digest"
_CONTENT_SLOT = "_memo_content_digest"
#: Instance-dict slots holding the wire size and the repr string.
_SIZE_SLOT = "_memo_size_bytes"
_REPR_STR_SLOT = "_memo_repr_str"

#: Authenticator fields, excluded from ``signed_content()`` by convention
#: (attaching one must not invalidate a memoised signed-content digest).
_AUTH_FIELDS = frozenset({"signature", "auth", "mac"})


class Message:
    """Root of all protocol message classes.

    ``HEADER_BYTES`` approximates transport framing plus type and routing
    metadata common to every message; subclasses add their fields in
    :meth:`payload_size`.  A subclass is a frozen dataclass whose repr is
    the ``dataclasses`` field format, or defines its own ``__repr__``;
    either way :meth:`__init_subclass__` moves that repr to
    ``_wire_repr`` and installs the memoised :meth:`__repr__` in its
    place, so ``@dataclass`` generates none (and with it no recursion
    guard: a message never contains itself).
    """

    HEADER_BYTES = 64

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        setattr(cls, "_wire_repr", cls.__dict__.get("__repr__", Message._wire_repr))
        setattr(cls, "__repr__", Message.__repr__)

    def __repr__(self) -> str:
        state = self.__dict__
        text = state.get(_REPR_STR_SLOT)
        if text is None:
            text = state[_REPR_STR_SLOT] = self._wire_repr()
        return text

    def _wire_repr(self) -> str:
        """The repr ``@dataclass`` would generate, computed afresh."""
        cls = self.__class__
        template = cls.__dict__.get("_repr_template")
        if template is None:
            # A subclass without its own __repr__ is a dataclass, whose
            # fields live in the instance dict; one template per class.
            shown = [f.name for f in fields(self) if f.repr]  # type: ignore[arg-type]
            body = ", ".join(f"{name}={{{name}!r}}" for name in shown)
            template = f"{cls.__qualname__}({body})"
            setattr(cls, "_repr_template", template)
        return template.format_map(self.__dict__)

    def size_bytes(self) -> int:
        """Total simulated wire size."""
        state = self.__dict__
        size = state.get(_SIZE_SLOT)
        if size is None:
            size = state[_SIZE_SLOT] = self.HEADER_BYTES + self.payload_size()
        return size

    def payload_size(self) -> int:
        """Size of the message body; subclasses add their fields here."""
        return 0

    def type_name(self) -> str:
        return type(self).__name__


def _crc64(data: bytes) -> int:
    # Two CRC passes with different salts give a cheap, stable 64-bit value.
    return (_crc32(data, _HIGH_SALT) << 32) | _crc32(data)


def _memo_digest(obj: Any, slot: str, text: str) -> int:
    """A digest memo's first use: hash ``text``, store ``(digest, kb)`` in
    ``slot`` and charge the hashing cost."""
    data = text.encode("utf-8", errors="replace")
    value = _crc64(data)
    kb = len(data) / 1024.0
    obj.__dict__[slot] = (value, kb)
    charge(_costs._ACTIVE.hash_per_kb * kb)
    return value


def digest(obj: Any) -> int:
    """Stable digest of ``obj`` (charges hashing cost by object size)."""
    if isinstance(obj, Message):
        entry = obj.__dict__.get(_REPR_SLOT)
        if entry is None:
            return _memo_digest(obj, _REPR_SLOT, repr(obj))
        node = _node._current
        if node is not None:
            cost = _costs._ACTIVE.hash_per_kb * entry[1]
            if cost > 0:
                node._pending_cost += cost
        return entry[0]
    data = repr(obj).encode("utf-8", errors="replace")
    charge(_costs._ACTIVE.hash_per_kb * (len(data) / 1024.0))
    return _crc64(data)


def content_digest(obj: Any) -> int:
    """Digest of what an authenticator covers, memoised for messages.

    That is ``obj.signed_content()`` when ``obj`` defines it, else ``obj``
    itself: bit-identical to ``digest(obj.signed_content())`` or
    ``digest(obj)`` — same encoding, same simulated hashing charge — but
    avoids rebuilding the content tuple and re-hashing it on every
    authentication of the same message.
    """
    if not isinstance(obj, Message):
        data = repr(obj).encode("utf-8", errors="replace")
        charge(_costs._ACTIVE.hash_per_kb * (len(data) / 1024.0))
        return _crc64(data)
    entry = obj.__dict__.get(_CONTENT_SLOT)
    if entry is None:
        if not hasattr(obj, "signed_content"):
            return digest(obj)
        return _memo_digest(obj, _CONTENT_SLOT, repr(obj.signed_content()))
    node = _node._current
    if node is not None:
        cost = _costs._ACTIVE.hash_per_kb * entry[1]
        if cost > 0:
            node._pending_cost += cost
    return entry[0]


def structural_digest(obj: Any) -> int:
    """The exact value :func:`digest` computes, with **no CPU charge**.

    Local integrity checks on *stored* state (does this snapshot still
    hash to the digest recorded when it was written?) model a disk-level
    checksum, not a network-facing crypto operation.  Charging them would
    perturb simulated CPU interleavings on paths that predate the storage
    fault model — this helper keeps such checks byte-invisible.  Never use
    it for anything a remote party must not be able to forge.

    It is the one repr that skips a memo: a message's own repr is computed
    afresh, so the send sanitizer sees a field rebound after the memos
    were filled.  Messages nested inside still answer from their memos;
    rejecting a rebind there is lint P202's job.
    """
    text = obj._wire_repr() if isinstance(obj, Message) else repr(obj)
    return _crc64(text.encode("utf-8", errors="replace"))


def attach_auth(body: Any, **auth: Any) -> Any:
    """``dataclasses.replace(body, **auth)`` that keeps the digest memo warm.

    The authenticator fields (``signature`` / ``auth`` / ``mac``) are excluded
    from ``signed_content()``, so the copy's content digest is identical to
    ``body``'s — transferring the memo spares every receiver of the
    authenticated copy the first re-digest.  Only authenticator fields may be
    replaced through this helper.

    The copy itself bypasses ``__init__``: a frozen message's state lives
    entirely in its instance dict, so duplicating the dict and overwriting
    the authenticator field is equivalent to ``dataclasses.replace`` at a
    fraction of the cost.  Memos whose value depends on the authenticator
    (full-object repr/digest, wire size) are dropped from the copy.
    """
    if not _AUTH_FIELDS.issuperset(auth):
        raise ValueError(f"attach_auth only replaces authenticator fields, got {auth}")
    cls = body.__class__
    if not (isinstance(body, Message) and auth.keys() <= cls.__dataclass_fields__.keys()):
        return dataclass_replace(body, **auth)
    message = object.__new__(cls)
    state = message.__dict__
    state.update(body.__dict__)
    state.pop(_REPR_SLOT, None)
    state.pop(_SIZE_SLOT, None)
    state.pop(_REPR_STR_SLOT, None)
    state.update(auth)
    return message


@dataclass(frozen=True)
class Signature:
    """A digital signature by ``signer`` over an object with ``object_digest``."""

    signer: str
    object_digest: int

    def size_bytes(self) -> int:
        return SIGNATURE_BYTES


@dataclass(frozen=True)
class BatchSignature(Signature):
    """One of the k signatures a single RSA operation made (:func:`sign_many`).

    It verifies on its own: ``siblings`` are the digests of the other k-1
    bodies and ``batch_digest`` is what the RSA operation covered — all k
    digests, sorted, so no position has to travel.
    """

    siblings: Tuple[int, ...]
    batch_digest: int

    def size_bytes(self) -> int:
        return SIGNATURE_BYTES + 8 * len(self.siblings)

    def intact(self) -> bool:
        batch = tuple(sorted(self.siblings + (self.object_digest,)))
        return self.batch_digest == structural_digest(batch)


def signature_bytes(signature: Optional[Signature]) -> int:
    """Wire size of a message's signature field (sized even while unsigned)."""
    return SIGNATURE_BYTES if signature is None else signature.size_bytes()


def sign(signer: str, obj: Any) -> Signature:
    """Sign ``obj`` as principal ``signer`` (charges RSA signing cost).

    ``obj`` is either a content tuple or a message, in which case its
    ``signed_content()`` (if it has one) is what gets signed.
    """
    charge(_costs._ACTIVE.rsa_sign)
    return Signature(signer=signer, object_digest=content_digest(obj))


def sign_many(signer: str, bodies: Sequence[Any]) -> List[Signature]:
    """One signature per body for the price of one RSA operation.

    Every body is hashed as :func:`sign` would hash it; the one
    ``rsa_sign`` then covers the sorted digests.  Each
    :class:`BatchSignature` names its siblings, so a receiver verifies it
    without the other bodies and at the cost of a plain :func:`verify`.
    Fewer than two bodies are signed by :func:`sign` itself.
    """
    if len(bodies) < 2:
        return [sign(signer, body) for body in bodies]
    digests = [content_digest(body) for body in bodies]
    covered = sign(signer, tuple(sorted(digests))).object_digest
    return [
        BatchSignature(signer, own, tuple(digests[:index] + digests[index + 1 :]), covered)
        for index, own in enumerate(digests)
    ]


def verify(
    signature: Optional[Signature],
    obj: Any,
    signer: Optional[str] = None,
    group: Optional[Iterable[str]] = None,
) -> bool:
    """Check a signature (charges RSA verification cost).

    ``signer`` pins the expected principal; ``group`` instead accepts any
    member of a set (the paper's ``valid_sig_E``).
    """
    charge(_costs._ACTIVE.rsa_verify)
    if signature is None:
        return False
    if signer is not None and signature.signer != signer:
        return False
    if group is not None and signature.signer not in group:
        return False
    if signature.object_digest != content_digest(obj):
        return False
    return signature.__class__ is not BatchSignature or signature.intact()


@dataclass(frozen=True)
class Mac:
    """A single HMAC authenticating ``obj`` from ``sender`` to ``receiver``."""

    sender: str
    receiver: str
    object_digest: int

    def size_bytes(self) -> int:
        return MAC_BYTES


def make_mac(sender: str, receiver: str, obj: Any) -> Mac:
    """The paper's ``mac_{a,e}(m)``."""
    charge(_costs._ACTIVE.hmac)
    return Mac(sender=sender, receiver=receiver, object_digest=content_digest(obj))


def verify_mac(mac: Optional[Mac], obj: Any, sender: str, receiver: str) -> bool:
    charge(_costs._ACTIVE.hmac)
    if mac is None:
        return False
    if mac.sender != sender or mac.receiver != receiver:
        return False
    return mac.object_digest == content_digest(obj)


@dataclass(frozen=True)
class MacVector:
    """A MAC vector authenticating ``obj`` from ``sender`` to a whole group.

    The paper's ``mac_{a,E}(m)``: one MAC per group member, so its wire size
    grows with the group.
    """

    sender: str
    macs: Tuple[Tuple[str, int], ...]  # (receiver, object_digest) pairs

    def size_bytes(self) -> int:
        return MAC_BYTES * max(1, len(self.macs))

    def receiver_digests(self) -> Dict[str, int]:
        """Receiver -> digest lookup table, built once per vector."""
        table = self.__dict__.get("_receiver_digests")
        if table is None:
            table = dict(self.macs)
            object.__setattr__(self, "_receiver_digests", table)
        return table


def make_mac_vector(sender: str, receivers: Iterable[str], obj: Any) -> MacVector:
    receivers = tuple(receivers)
    charge(_costs._ACTIVE.hmac * max(1, len(receivers)))
    obj_digest = content_digest(obj)
    return MacVector(
        sender=sender, macs=tuple([(receiver, obj_digest) for receiver in receivers])
    )


def make_equivocating_mac_vector(
    sender: str, variants: Dict[str, Any]
) -> MacVector:
    """A MAC vector whose entries authenticate *different* objects.

    This is the authenticated-equivocation primitive: a Byzantine sender
    holds its own MAC keys, so nothing stops it from putting the digest of
    a different payload variant in each receiver's entry — every receiver
    then validates "its" variant as genuinely coming from ``sender``, yet
    no two receivers saw the same bytes.  (What the sender *cannot* do is
    forge entries for other principals' keys; this helper only models
    misuse of the sender's own.)  ``variants`` maps receiver name to the
    object that receiver's entry should authenticate.  Costs charge like
    an honest :func:`make_mac_vector` over the same group.
    """
    charge(_costs._ACTIVE.hmac * max(1, len(variants)))
    return MacVector(
        sender=sender,
        macs=tuple(
            (receiver, content_digest(obj)) for receiver, obj in variants.items()
        ),
    )


def verify_mac_vector(
    vector: Optional[MacVector], obj: Any, sender: str, receiver: str
) -> bool:
    """Verify the entry for ``receiver`` in a MAC vector from ``sender``."""
    charge(_costs._ACTIVE.hmac)
    if vector is None or vector.sender != sender:
        return False
    macs = vector.macs
    if len(macs) <= 8:
        # Typical group sizes: a linear scan beats building a lookup table.
        expected = None
        for entry_receiver, entry_digest in macs:
            if entry_receiver == receiver:
                expected = entry_digest
                break
    else:
        expected = vector.receiver_digests().get(receiver)
    if expected is None:
        return False
    return expected == content_digest(obj)
