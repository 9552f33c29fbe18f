"""Implementation of the checkpoint component."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checkpoints.messages import CheckpointMsg, CpState, FetchCp
from repro.crypto.primitives import digest, structural_digest, verify
from repro.sim.routing import Component, RoutedNode


class CheckpointComponent(Component):
    """Group-local checkpointing with f+1 stability certificates.

    Parameters
    ----------
    node, tag:
        Hosting node and routing tag (same tag at every group member).
    peers:
        The replica group sharing checkpoints.
    f:
        Faults tolerated in the group; stability needs ``f + 1`` matching
        signed checkpoint messages (Definition A.10).
    on_stable:
        Callback ``fn(seq, state)`` — the paper's ``stable_cp``.  Invoked
        with monotonically increasing sequence numbers; superseded
        checkpoints are skipped (Fig. 13 contract).
    state_size_fn:
        Optional estimator of a snapshot's transfer size in bytes.
    providers:
        Additional nodes (possibly in *other* groups) that
        :meth:`fetch_cp` may query; certificates are signed, hence
        transferable across groups (paper Section 3.5).
    """

    def __init__(
        self,
        node: RoutedNode,
        tag: str,
        peers: Sequence[RoutedNode],
        f: int,
        on_stable: Callable[[int, Any], None],
        state_size_fn: Optional[Callable[[Any], int]] = None,
        providers: Optional[Sequence[RoutedNode]] = None,
        retain: int = 2,
    ):
        super().__init__(node, tag)
        self.peers = list(peers)
        self.peer_names = {peer.name for peer in self.peers}
        self.f = f
        self.on_stable = on_stable
        self.state_size_fn = state_size_fn or (lambda state: len(repr(state)))
        self.providers = list(providers) if providers is not None else list(self.peers)
        self.retain = retain

        #: other replica groups whose checkpoint certificates we accept
        #: (group id -> member names); used for cross-group state transfer
        #: when an execution group fell behind (paper Section 3.5).
        self.remote_groups: Dict[str, frozenset] = {}
        #: seq -> sender -> CheckpointMsg (candidate certificates)
        self._votes: Dict[int, Dict[str, CheckpointMsg]] = {}
        #: our own snapshots awaiting stability, seq -> (state, digest)
        self._local: Dict[int, Tuple[Any, int]] = {}
        #: latest stable checkpoint we hold in full: (seq, state, certificate)
        self.latest_stable: Optional[Tuple[int, Any, Tuple[CheckpointMsg, ...]]] = None
        self.delivered_seq = -1
        self.stable_count = 0
        #: stored snapshots found rotten at load/serve time (storage-fault
        #: detection: the on-disk bytes no longer hash to the digest
        #: recorded when they were written).
        self.corruption_detected = 0
        node.add_wipe_hook(self.wipe)

    def wipe(self) -> None:
        """Durable-state loss: forget every stored snapshot and certificate.

        After a disk-wiping crash the component reboots empty — the next
        :meth:`fetch_latest` then pulls the group's newest stable
        checkpoint from scratch (``delivered_seq`` resets so *any* stable
        checkpoint qualifies), which is exactly the full-install path.
        """
        self._votes.clear()
        self._local.clear()
        self.latest_stable = None
        self.delivered_seq = -1

    def close(self) -> None:
        self.node.remove_wipe_hook(self.wipe)
        super().close()

    # ------------------------------------------------------------------
    # Public API (paper Fig. 13)
    # ------------------------------------------------------------------
    def gen_cp(self, seq: int, state: Any) -> None:
        """Create and distribute this replica's checkpoint message."""
        state_digest = digest(state)
        self._local[seq] = (state, state_digest)
        # Retain only a few local snapshots to bound memory.
        for old in sorted(self._local):
            if len(self._local) <= self.retain:
                break
            if old != seq:
                del self._local[old]
        vote = CheckpointMsg(
            tag=self.tag, seq=seq, state_digest=state_digest, sender=self.node.name
        )
        self.node.seal_later(self._emit, vote)  # signed with what else the node emits

    def _emit(self, votes: List[CheckpointMsg]) -> List[Tuple[CheckpointMsg, Any]]:
        return [(vote, self._publish) for vote in votes]

    def _publish(self, message: CheckpointMsg) -> None:
        if message.seq > self.delivered_seq:  # peers may have certified it meanwhile
            self._record_vote(message)
        self.broadcast(self.peers, message)

    def fetch_cp(self, min_seq: int) -> None:
        """Actively query providers for a stable checkpoint >= ``min_seq``."""
        request = FetchCp(tag=self.tag, min_seq=min_seq, sender=self.node.name)
        for provider in self.providers:
            if provider is not self.node:
                self.send(provider, request)

    def fetch_latest(self) -> None:
        """Boot-time catch-up: ask providers for any checkpoint newer than ours.

        Used by replicas rebooting after a crash (checkpoint-fetch-on-boot):
        a replica that slept through the whole vote exchange holds no
        candidate certificates of its own, so without an active pull
        nothing would ever trigger the transfer.  Harmless when nothing
        newer exists — providers with no qualifying checkpoint (or no
        stable checkpoint at all) simply stay silent and the replica
        continues from its preserved in-memory state.
        """
        self.fetch_cp(self.delivered_seq + 1)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, src, message: Any) -> None:
        if isinstance(message, CheckpointMsg):
            self._on_checkpoint_msg(message)
        elif isinstance(message, FetchCp):
            self._on_fetch(src, message)
        elif isinstance(message, CpState):
            self._on_cp_state(message)

    def _on_checkpoint_msg(self, message: CheckpointMsg) -> None:
        if message.sender not in self.peer_names:
            return
        if message.seq <= self.delivered_seq:
            return
        if not verify(message.signature, message, signer=message.sender):
            return
        self._record_vote(message)

    def _record_vote(self, message: CheckpointMsg) -> None:
        votes = self._votes.setdefault(message.seq, {})
        votes.setdefault(message.sender, message)
        matching = [
            vote for vote in votes.values() if vote.state_digest == message.state_digest
        ]
        if len(matching) >= self.f + 1:
            self._on_certificate(message.seq, message.state_digest, tuple(matching))

    def _on_certificate(
        self, seq: int, state_digest: int, certificate: Tuple[CheckpointMsg, ...]
    ) -> None:
        local = self._local.get(seq)
        if local is not None and local[1] == state_digest:
            # Storage-fault check: re-hash the *stored* bytes before
            # restoring them.  A snapshot that rotted on disk since
            # ``gen_cp`` recorded its digest must not be delivered — drop
            # it and fall through to the peer fetch below.
            if structural_digest(local[0]) == state_digest:
                self._deliver(seq, local[0], certificate)
                return
            self.corruption_detected += 1
            del self._local[seq]
        # We have proof that a correct replica holds this checkpoint but no
        # matching snapshot of our own: pull the full state from a signer
        # (CP-Liveness, Definition A.12).
        signers = {vote.sender for vote in certificate}
        request = FetchCp(tag=self.tag, min_seq=seq, sender=self.node.name)
        for peer in self.peers:
            if peer.name in signers and peer is not self.node:
                self.send(peer, request)

    def _on_fetch(self, src, message: FetchCp) -> None:
        if self.latest_stable is None:
            return
        seq, state, certificate = self.latest_stable
        if seq < message.min_seq:
            return
        # Never serve poison: the stored snapshot must still hash to the
        # digest its certificate vouches for.  On a mismatch the local copy
        # is rotten — discard it and re-fetch a clean one from the peers
        # (the requester will be answered by an uncorrupted provider).
        if certificate and structural_digest(state) != certificate[0].state_digest:
            self.corruption_detected += 1
            self.latest_stable = None
            self.fetch_cp(seq)
            return
        self.send(
            src,
            CpState(
                tag=self.tag,
                seq=seq,
                state=state,
                certificate=certificate,
                sender=self.node.name,
                state_size=self.state_size_fn(state),
            ),
        )

    def _accepted_signer_sets(self) -> List[frozenset]:
        """Groups whose f+1 certificates we trust (own group + remotes)."""
        return [frozenset(self.peer_names)] + list(self.remote_groups.values())

    def _on_cp_state(self, message: CpState) -> None:
        if message.seq <= self.delivered_seq:
            return
        if len(message.certificate) < self.f + 1:
            return
        state_digest = digest(message.state)
        signers = set()
        for vote in message.certificate:
            if vote.seq != message.seq or vote.state_digest != state_digest:
                return
            if vote.sender in signers:
                return
            if not verify(vote.signature, vote, signer=vote.sender):
                return
            signers.add(vote.sender)
        # All signers must belong to a *single* trusted group; mixing groups
        # could let f_e faulty replicas per group jointly fake a quorum.
        if not any(signers <= group for group in self._accepted_signer_sets()):
            return
        self._deliver(message.seq, message.state, message.certificate)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(
        self, seq: int, state: Any, certificate: Tuple[CheckpointMsg, ...]
    ) -> None:
        if seq <= self.delivered_seq:
            return
        self.delivered_seq = seq
        self.latest_stable = (seq, state, certificate)
        self.stable_count += 1
        for old in [s for s in self._votes if s <= seq]:
            del self._votes[old]
        for old in [s for s in self._local if s < seq]:
            del self._local[old]
        self.on_stable(seq, state)
