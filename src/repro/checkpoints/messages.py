"""Messages exchanged by the checkpoint component."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.crypto.primitives import Signature, signature_bytes
from repro.net.message import Message


@dataclass(frozen=True)
class CheckpointMsg(Message):
    """``<Checkpoint, h, s>`` — a signed hash of one replica's snapshot.

    Signed (not MACed) because 2f+1-sized execution groups need
    transferable f+1 certificates for CP-Safety (paper Section A.4.3).
    """

    tag: str
    seq: int
    state_digest: int
    sender: str
    signature: Optional[Signature] = None

    def signed_content(self) -> Tuple:
        return ("cp", self.tag, self.seq, self.state_digest, self.sender)

    def payload_size(self) -> int:
        return 24 + signature_bytes(self.signature)


@dataclass(frozen=True)
class FetchCp(Message):
    """Ask a peer for its latest stable checkpoint at or above ``min_seq``."""

    tag: str
    min_seq: int
    sender: str

    def payload_size(self) -> int:
        return 16


@dataclass(frozen=True)
class CpState(Message):
    """A full checkpoint: snapshot plus the f+1 certificate proving it."""

    tag: str
    seq: int
    state: Any
    certificate: Tuple[CheckpointMsg, ...]
    sender: str
    state_size: int = 0

    def payload_size(self) -> int:
        return 16 + self.state_size + sum(m.payload_size() for m in self.certificate)
