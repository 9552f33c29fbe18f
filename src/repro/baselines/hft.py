"""The HFT baseline: Steward-style hierarchical replication (paper Fig. 1b).

Each *site* (region) hosts a cluster of ``3f + 1`` replicas.  Within a
site, replicas jointly produce threshold-signed messages, so an entire
site can vouch for a statement with one constant-size authenticator; a
correct site then only fails by crashing, which lets the *wide-area*
protocol between sites be merely crash-tolerant (majority quorums).

Protocol (normal case):

1. Clients submit requests to their local site; the site's representative
   forwards them to the leader site's representative.
2. The leader-site representative assigns a global sequence number and has
   its site threshold-sign a ``Proposal`` (one local share round).  Like
   the PBFT leaders it is compared with, it batches self-clocked: requests
   arriving while its last proposal is unexecuted travel as one ``Batch``.
3. The ``Proposal`` goes to all sites; each site threshold-signs an
   ``Accept`` (another local share round) and exchanges it with all sites.
4. A replica executes sequence number ``s`` once it holds the Proposal and
   accepts from a majority of sites (the Proposal counts as the leader
   site's accept), in order; the client's site replies to the client.

Fault handling implements representative rotation inside a site on
timeout.  Steward's leader-site replacement and its recovery subprotocols
are out of scope: the paper's evaluation exercises the normal case only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.app.statemachine import StateMachine
from repro.consensus.interface import BatchAccumulator, batch_items
from repro.consensus.pbft.config import PbftConfig
from repro.core.answering import ClientFacing
from repro.core.client import SpiderClient
from repro.core.messages import ClientRequest, RequestWrapper, WeakRead
from repro.crypto.threshold import (
    ThresholdSignature,
    combine_shares,
    sign_share,
    verify_threshold,
)
from repro.net import Network, Site
from repro.net.message import Message
from repro.sim import Simulator
from repro.sim.routing import RoutedNode

if TYPE_CHECKING:
    from repro.deploy.spec import HftSpec

PROPOSAL = "proposal"
ACCEPT = "accept"


@dataclass(frozen=True)
class SiteForward(Message):
    """A site forwards a validated client request to the leader site."""

    request: RequestWrapper
    site: str
    sender: str

    def payload_size(self) -> int:
        return self.request.payload_size() + 16


@dataclass(frozen=True)
class ShareRequest(Message):
    """The site representative asks peers for a threshold share."""

    kind: str  # PROPOSAL or ACCEPT
    seq: int
    payload_digest: int
    request: Any  # RequestWrapper or Batch of them; None for accepts
    sender: str

    def payload_size(self) -> int:
        size = 24
        if self.request is not None:
            size += self.request.payload_size()
        return size


@dataclass(frozen=True)
class Share(Message):
    """One replica's threshold share, returned to the representative."""

    kind: str
    seq: int
    share: Any  # ThresholdSigShare
    sender: str

    def payload_size(self) -> int:
        return 16 + 128


@dataclass(frozen=True)
class Proposal(Message):
    """Leader site's threshold-signed global ordering decision."""

    seq: int
    request: Any  # RequestWrapper or Batch of them
    tsig: ThresholdSignature
    site: str
    sender: str

    def payload_size(self) -> int:
        return 16 + self.request.payload_size() + 128


@dataclass(frozen=True)
class Accept(Message):
    """A site's threshold-signed acknowledgement of a Proposal."""

    seq: int
    payload_digest: int
    tsig: ThresholdSignature
    site: str
    sender: str

    def payload_size(self) -> int:
        return 24 + 128


def _proposal_content(seq: int, payload_digest: int) -> Tuple:
    return ("hft-proposal", seq, payload_digest)


def _accept_content(seq: int, payload_digest: int, site: str) -> Tuple:
    return ("hft-accept", seq, payload_digest, site)


class HftReplica(ClientFacing, RoutedNode):
    """One replica of one HFT site."""

    def __init__(self, sim, name, site: Site, site_id: str, index: int, app: StateMachine, f: int = 1):
        super().__init__(sim, name, site)
        self.site_id = self.reply_group = site_id
        self.index = index
        self.app = app
        self.f = f
        self.threshold = 2 * f + 1

        self.system: Optional["HftSystem"] = None
        self.local_view = 0  # rotates the site representative
        self.sn = 0  # last executed global sequence number
        self.next_seq = 1  # leader-site rep: next sequence to assign
        self.t: Dict[str, int] = {}
        self.u: Dict[str, Tuple[int, Any]] = {}
        self.assigned: set = set()  # (client, tc) handed to the ordering path
        self.proposal_payloads: Dict[int, Any] = {}  # rep only: wrapper or Batch
        #: leader-site rep: requests queue here while a proposal is unexecuted
        self._accumulator = BatchAccumulator(
            PbftConfig.batch_size, lambda: self.next_seq - 1 > self.sn, self._propose
        )
        self.signed: Dict[Tuple[str, int], int] = {}  # (kind, seq) -> digest
        self.shares: Dict[Tuple[str, int], Dict[str, Any]] = {}
        self.proposals: Dict[int, Proposal] = {}
        self.accepts: Dict[int, set] = {}
        self.pending: Dict[str, dict] = {}  # client -> retry state
        self.leader_target = 0  # which leader-site replica we contact
        self.timeout_ms = 3000.0
        self.set_default_handler(self._on_message)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def site_peers(self) -> List["HftReplica"]:
        return self.system.sites[self.site_id]

    @property
    def is_rep(self) -> bool:
        peers = self.site_peers
        return peers[self.local_view % len(peers)] is self

    def _rep_of(self, site_id: str) -> "HftReplica":
        peers = self.system.sites[site_id]
        return peers[self.leader_target % len(peers)]

    def _local_rep(self) -> "HftReplica":
        peers = self.site_peers
        return peers[self.local_view % len(peers)]

    @property
    def is_leader_site(self) -> bool:
        return self.site_id == self.system.leader_site

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _on_message(self, src, message: Any) -> None:
        if isinstance(message, ClientRequest):
            self._on_client_request(src, message)
        elif isinstance(message, WeakRead):
            self._on_weak_read(src, message)
        elif isinstance(message, SiteForward):
            self._on_site_forward(message)
        elif isinstance(message, ShareRequest):
            self._on_share_request(src, message)
        elif isinstance(message, Share):
            self._on_share(message)
        elif isinstance(message, Proposal):
            self._on_proposal(message)
        elif isinstance(message, Accept):
            self._on_accept(message)

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------
    def _on_client_request(self, src, message: ClientRequest) -> None:
        wrapper = self._admit(src, message)
        if wrapper is None:
            return
        body = wrapper.body
        self.t[body.client] = body.counter
        state = {"wrapper": wrapper, "counter": body.counter, "timer": None}
        self.pending[body.client] = state
        self._dispatch_request(wrapper)
        state["timer"] = self.after(self.timeout_ms, self._on_request_timeout, body.client)

    def _dispatch_request(self, wrapper: RequestWrapper) -> None:
        if self.is_leader_site:
            if self.is_rep:
                self._assign_and_propose(wrapper)
            else:
                self.send(self._local_rep(), SiteForward(wrapper, self.site_id, self.name))
        elif self.is_rep:
            self.send(
                self._rep_of(self.system.leader_site),
                SiteForward(wrapper, self.site_id, self.name),
            )

    def _on_request_timeout(self, client: str) -> None:
        state = self.pending.get(client)
        if state is None:
            return
        # Suspect the current representative: rotate our own site's rep and
        # the leader-site replica we target, then retry (local view change;
        # Steward's full timeout coordination is out of scope).
        self.local_view += 1
        self.leader_target += 1
        self._dispatch_request(state["wrapper"])
        state["timer"] = self.after(self.timeout_ms, self._on_request_timeout, client)

    # ------------------------------------------------------------------
    # Leader-site ordering
    # ------------------------------------------------------------------
    def _on_site_forward(self, message: SiteForward) -> None:
        if not self.is_leader_site:
            return
        if self.is_rep:
            self._assign_and_propose(message.request)
            return
        # Not the representative: relay to the current one, and watch the
        # request so a faulty rep triggers our local rotation too.
        body = message.request.body
        if body.counter <= self._executed_counter(body.client):
            return
        state = self.pending.get(body.client)
        if state is None or state["counter"] < body.counter:
            if state is not None and state["timer"] is not None:
                state["timer"].cancel()
            state = {"wrapper": message.request, "counter": body.counter, "timer": None}
            self.pending[body.client] = state
            state["timer"] = self.after(
                self.timeout_ms, self._on_request_timeout, body.client
            )
        self.send(self._local_rep(), message)

    def _assign_and_propose(self, wrapper: RequestWrapper) -> None:
        body = wrapper.body
        key = (body.client, body.counter)
        if key in self.assigned or body.counter <= self._executed_counter(body.client):
            return
        self.assigned.add(key)
        self._accumulator.intake(wrapper)

    def _propose(self, payload: Any, items: list) -> None:
        seq = self.next_seq
        self.next_seq += 1
        self.proposal_payloads[seq] = payload
        self._request_shares(PROPOSAL, seq, payload)

    def _executed_counter(self, client: str) -> int:
        cached = self.u.get(client)
        return cached[0] if cached is not None else 0

    def _request_shares(self, kind: str, seq: int, wrapper: Any) -> None:
        from repro.crypto.primitives import digest as digest_fn

        if wrapper is None:
            wrapper = self.proposals[seq].request
            if kind == PROPOSAL:
                self.proposal_payloads.setdefault(seq, wrapper)
        payload_digest = digest_fn(wrapper)
        if kind == ACCEPT:
            wrapper = None  # accepts carry only the digest
        request = ShareRequest(
            kind=kind,
            seq=seq,
            payload_digest=payload_digest,
            request=wrapper,
            sender=self.name,
        )
        for peer in self.site_peers:
            if peer is self:
                self.run_task(self._on_share_request, self, request)
            else:
                self.send(peer, request)

    def _on_share_request(self, src, message: ShareRequest) -> None:
        if message.sender not in {peer.name for peer in self.site_peers}:
            return
        key = (message.kind, message.seq)
        previous = self.signed.get(key)
        if previous is not None and previous != message.payload_digest:
            return  # refuse to double-sign a conflicting statement
        self.signed[key] = message.payload_digest
        if message.kind == PROPOSAL and message.request is not None:
            content = _proposal_content(message.seq, message.payload_digest)
        else:
            content = _accept_content(message.seq, message.payload_digest, self.site_id)
        share = sign_share(f"site-{self.site_id}", self.name, content)
        reply = Share(kind=message.kind, seq=message.seq, share=share, sender=self.name)
        rep = self.network.nodes.get(message.sender)
        if rep is self:
            self.run_task(self._on_share, reply)
        elif rep is not None:
            self.send(rep, reply)

    def _on_share(self, message: Share) -> None:
        key = (message.kind, message.seq)
        collected = self.shares.setdefault(key, {})
        if message.sender in collected:
            return
        collected[message.sender] = message.share
        if len(collected) < self.threshold:
            return
        expected = self.signed.get(key)
        if expected is None:
            return
        if message.kind == PROPOSAL:
            content = _proposal_content(message.seq, expected)
        else:
            content = _accept_content(message.seq, expected, self.site_id)
        tsig = combine_shares(collected.values(), self.threshold, content)
        if tsig is None:
            return
        del self.shares[key]
        if message.kind == PROPOSAL:
            self._broadcast_proposal(message.seq, tsig)
        else:
            self._broadcast_accept(message.seq, expected, tsig)

    def _broadcast_proposal(self, seq: int, tsig: ThresholdSignature) -> None:
        wrapper = self.proposal_payloads.get(seq)
        if wrapper is None:
            return
        proposal = Proposal(seq=seq, request=wrapper, tsig=tsig, site=self.site_id, sender=self.name)
        for site_id, peers in self.system.sites.items():
            for peer in peers:
                if peer is self:
                    self.run_task(self._on_proposal, proposal)
                else:
                    self.send(peer, proposal)

    # ------------------------------------------------------------------
    # Proposal / Accept processing (wide-area, crash-tolerant)
    # ------------------------------------------------------------------
    def _on_proposal(self, message: Proposal) -> None:
        from repro.crypto.primitives import digest as digest_fn

        payload_digest = digest_fn(message.request)
        content = _proposal_content(message.seq, payload_digest)
        if not verify_threshold(message.tsig, content, group=f"site-{message.site}"):
            return
        if message.site != self.system.leader_site:
            return
        if message.seq in self.proposals:
            return
        self.proposals[message.seq] = message
        # The proposal is the leader site's accept.
        self.accepts.setdefault(message.seq, set()).add(message.site)
        if self.is_rep and self.site_id != message.site:
            self._request_shares(ACCEPT, message.seq, None)
        self._try_execute()

    def _broadcast_accept(self, seq: int, payload_digest: int, tsig: ThresholdSignature) -> None:
        accept = Accept(
            seq=seq,
            payload_digest=payload_digest,
            tsig=tsig,
            site=self.site_id,
            sender=self.name,
        )
        for site_id, peers in self.system.sites.items():
            for peer in peers:
                if peer is self:
                    self.run_task(self._on_accept, accept)
                else:
                    self.send(peer, accept)

    def _on_accept(self, message: Accept) -> None:
        content = _accept_content(message.seq, message.payload_digest, message.site)
        if not verify_threshold(message.tsig, content, group=f"site-{message.site}"):
            return
        self.accepts.setdefault(message.seq, set()).add(message.site)
        self._try_execute()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _try_execute(self) -> None:
        majority = len(self.system.sites) // 2 + 1
        while True:
            seq = self.sn + 1
            proposal = self.proposals.get(seq)
            if proposal is None or len(self.accepts.get(seq, ())) < majority:
                break
            self.sn = seq
            for item in batch_items(proposal.request):
                self._execute(item)
        self._accumulator.release()

    def _execute(self, wrapper: RequestWrapper) -> None:
        if self._execute_once(wrapper, reply=wrapper.group == self.site_id):
            state = self.pending.pop(wrapper.body.client, None)
            if state is not None and state["timer"] is not None:
                state["timer"].cancel()


class HftSystem:
    """The HFT baseline built from its :class:`~repro.deploy.HftSpec`:
    one 3f+1 cluster per spec'd region, the leader site's first (the
    paper's "Leader site in V/O/I/T" runs).
    """

    def __init__(self, sim: Simulator, network: Network, spec: HftSpec):
        self.sim = sim
        self.network = network
        regions = spec.ordered_regions()
        self.leader_site = regions[0]
        self.sites: Dict[str, List[HftReplica]] = {}
        self.f = spec.f
        site_layout = dict(spec.site_layout or ())
        for region in regions:
            cluster = []
            placement = site_layout.get(region)
            for index in range(3 * spec.f + 1):
                where = placement[index] if placement else Site(region, index + 1)
                replica = HftReplica(
                    sim,
                    f"hft-{region}-{index}",
                    where,
                    region,
                    index,
                    spec.app_factory(),
                    f=spec.f,
                )
                network.register(replica)
                cluster.append(replica)
            self.sites[region] = cluster
        for cluster in self.sites.values():
            for replica in cluster:
                replica.system = self
        self.clients: Dict[str, SpiderClient] = {}

    def make_client(
        self, name: str, region: str, zone: int = 1, site_region: Optional[str] = None
    ) -> SpiderClient:
        """Clients use their local site cluster; f+1 matching replies.

        ``site_region`` lets a client in a region without a site (e.g. the
        Sao Paulo joiners of Fig. 10) use the nearest existing cluster.
        """
        site_replicas = self.sites[site_region or region]
        client = SpiderClient(
            self.sim,
            name,
            Site(region, zone),
            region,
            site_replicas,
            fe=self.f,
        )
        self.network.register(client)
        self.clients[name] = client
        return client
