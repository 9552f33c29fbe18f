"""The BFT baseline: flat PBFT across regions (paper Fig. 1a).

One replica per region; clients submit requests to all replicas and accept
``f + 1`` matching replies.  Weakly consistent reads are answered directly
by each replica, but the client still needs ``f + 1`` matching answers — at
least one of which crosses the WAN, which is exactly why the paper's
Fig. 8b/10b show BFT weak reads paying wide-area latency.

Passing ``weights`` turns the system into **BFT-WV** (weighted voting a la
WHEAT): extra replicas join the group and the consensus quorum is formed by
vote weight instead of count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.app.statemachine import StateMachine
from repro.checkpoints import CheckpointComponent
from repro.consensus.interface import batch_items
from repro.consensus.pbft import PbftConfig, PbftReplica
from repro.core.answering import ClientFacing
from repro.core.client import SpiderClient
from repro.core.messages import ClientRequest, RequestWrapper, WeakRead
from repro.net import Network, Site
from repro.sim import Process, Simulator
from repro.sim.routing import RoutedNode

if TYPE_CHECKING:
    from repro.deploy.spec import BftSpec


class BftReplica(ClientFacing, RoutedNode):
    """A geo-distributed PBFT replica hosting the application directly."""

    reply_group = "bft"

    def __init__(self, sim, name, site, app: StateMachine, f: int = 1, checkpoint_interval: int = 16):
        super().__init__(sim, name, site)
        self.app = app
        self.f = f
        self.checkpoint_interval = checkpoint_interval
        self.sn = 0
        self.t: Dict[str, int] = {}
        self.u: Dict[str, Tuple[int, Any]] = {}
        self.ag: Optional[PbftReplica] = None
        self.cp: Optional[CheckpointComponent] = None
        self.set_default_handler(self._on_client_message)

    def setup(self, peers, pbft_config: PbftConfig) -> None:
        self.ag = PbftReplica(self, "pbft-bft", peers, pbft_config)
        self.cp = CheckpointComponent(
            self, "cp-bft", peers, self.f, self._on_stable_checkpoint
        )
        Process(self.sim, self._delivery_loop(), node=self, name=f"{self.name}.deliver")

    # ------------------------------------------------------------------
    # Client handling
    # ------------------------------------------------------------------
    def _on_client_message(self, src, message: Any) -> None:
        if isinstance(message, ClientRequest):
            self._on_request(src, message)
        elif isinstance(message, WeakRead):
            self._on_weak_read(src, message)

    def _on_request(self, src, message: ClientRequest) -> None:
        wrapper = self._admit(src, message)
        if wrapper is not None:
            self.t[wrapper.body.client] = wrapper.body.counter
            self.ag.order(wrapper)

    # ------------------------------------------------------------------
    # Ordered execution
    # ------------------------------------------------------------------
    def _delivery_loop(self):
        while True:
            seq, payload = yield self.ag.next_delivery()
            if seq <= self.sn:
                continue
            self.sn = seq
            for item in batch_items(payload):
                if isinstance(item, RequestWrapper):
                    self._execute_once(item)
            if seq % self.checkpoint_interval == 0:
                self.cp.gen_cp(seq, self._snapshot())

    # ------------------------------------------------------------------
    # Checkpointing / log truncation
    # ------------------------------------------------------------------
    def _snapshot(self) -> Tuple:
        return (tuple(sorted(self.u.items())), self.app.snapshot())

    def _on_stable_checkpoint(self, seq: int, state: Tuple) -> None:
        self.ag.gc(seq + 1)
        if seq > self.sn:
            reply_cache, app_state = state
            self.sn = seq
            self.u = dict(reply_cache)
            self.app.restore(app_state)


class BftSystem:
    """The BFT / BFT-WV baseline built from its :class:`~repro.deploy.BftSpec`.

    One replica is placed in each spec'd region, the leader's region
    first (the paper's "Leader in V/O/I/T" configurations); the spec's
    ``weights`` enable weighted voting.
    """

    def __init__(self, sim: Simulator, network: Network, spec: BftSpec):
        self.sim = sim
        self.network = network
        self.replicas: List[BftReplica] = []
        self.f = spec.f
        for region in spec.ordered_regions():
            replica = BftReplica(
                sim,
                f"bft-{region}",
                Site(region, 1),
                spec.app_factory(),
                f=spec.f,
                checkpoint_interval=spec.checkpoint_interval,
            )
            network.register(replica)
            self.replicas.append(replica)
        name_weights = (
            {f"bft-{region}": weight for region, weight in spec.weights}
            if spec.weights
            else None
        )
        config = PbftConfig(
            f=spec.f, view_timeout_ms=spec.view_timeout_ms, weights=name_weights
        )
        for replica in self.replicas:
            replica.setup(self.replicas, config)
        self.clients: Dict[str, SpiderClient] = {}

    def make_client(self, name: str, region: str, zone: int = 1) -> SpiderClient:
        """Clients talk to the whole replica group, f+1 matching replies."""
        client = SpiderClient(
            self.sim,
            name,
            Site(region, zone),
            "bft",
            self.replicas,
            fe=self.f,
        )
        self.network.register(client)
        self.clients[name] = client
        return client
