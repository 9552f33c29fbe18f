"""Node-graph wiring for one Spider shard.

:class:`Shard` owns the node graph of one agreement domain: the agreement
group in one region (one replica per availability zone), execution groups
near clients, and the clients themselves.  It supports both static
bootstrap (groups wired before the simulation starts) and dynamic
reconfiguration through the :class:`~repro.core.client.AdminClient`
(Section 3.6).

Deployments are normally *described* rather than hand-wired: the
:mod:`repro.deploy` subsystem turns a declarative
:class:`~repro.deploy.ClusterSpec` into one :class:`Shard` per spec'd
shard via :func:`repro.deploy.build`.  (The historical ``SpiderSystem``
hand-wiring alias served its one-release deprecation grace and is gone;
``Shard`` is the same class under its real name.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.app.kvstore import KVStore
from repro.consensus.pbft.replica import PbftReplica
from repro.core.agreement import AgreementReplica
from repro.core.client import AdminClient, SpiderClient
from repro.core.config import DEFAULT_AGREEMENT_ZONES, SpiderConfig
from repro.core.execution import ExecutionReplica
from repro.errors import ConfigurationError
from repro.net import Network, Site, Topology
from repro.sim import Simulator


@dataclass
class ExecutionGroup:
    """Handle for one deployed execution group."""

    group_id: str
    region: str
    replicas: List[ExecutionReplica] = field(default_factory=list)

    @property
    def member_names(self):
        return tuple(replica.name for replica in self.replicas)


class Shard:
    """Builds and manages one agreement domain of a Spider deployment.

    A shard is one agreement group plus the execution groups it feeds —
    the unit :func:`repro.deploy.build` instantiates per
    :class:`~repro.deploy.ShardSpec`.  ``name_prefix`` keeps node names
    (``ag0`` .. ``ag{n}``, ``admin``) unique when several shards share one
    network; single-shard deployments use the empty prefix, which keeps
    their node graph byte-identical to the historical hand-wired one.

    Example
    -------
    ::

        sim = Simulator(seed=1)
        shard = Shard(sim, agreement_region="virginia")
        shard.add_execution_group("va", "virginia")
        shard.add_execution_group("jp", "tokyo")
        client = shard.make_client("c1", "tokyo", group_id="jp")
        future = client.write(("put", "k", "v"))
        sim.run(until=1000)
        assert future.done
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[SpiderConfig] = None,
        network: Optional[Network] = None,
        agreement_region: str = "virginia",
        app_factory: Callable = KVStore,
        agreement_factory: Optional[Callable] = None,
        execute_locally: bool = False,
        agreement_zones: Optional[List[int]] = None,
        agreement_sites: Optional[List[Site]] = None,
        name_prefix: str = "",
    ):
        self.sim = sim
        self.config = config or SpiderConfig()
        self.config.validate()
        self.network = network or Network(sim, Topology())
        self.agreement_region = agreement_region
        self.app_factory = app_factory
        self.execute_locally = execute_locally
        self.name_prefix = name_prefix
        self.groups: Dict[str, ExecutionGroup] = {}
        self.clients: Dict[str, SpiderClient] = {}
        self._group_counter = 0

        if agreement_factory is None:
            pbft_config = self.config.pbft_config()
            agreement_factory = lambda node, peers: PbftReplica(  # noqa: E731
                node, "pbft-ag", peers, pbft_config
            )

        size = self.config.agreement_size
        if agreement_sites is not None:
            if len(agreement_sites) < size:
                raise ConfigurationError("not enough agreement sites provided")
            sites = list(agreement_sites)
        else:
            zones = agreement_zones or list(DEFAULT_AGREEMENT_ZONES)
            if len(zones) < size:
                raise ConfigurationError(
                    "not enough availability zones for agreement group"
                )
            sites = [Site(agreement_region, zone) for zone in zones]
        self.agreement_replicas: List[AgreementReplica] = []
        for index in range(size):
            replica = AgreementReplica(
                sim,
                f"{name_prefix}ag{index}",
                sites[index],
                self.config,
                execute_locally=execute_locally,
                app=app_factory() if execute_locally else None,
            )
            self.network.register(replica)
            self.agreement_replicas.append(replica)
        for replica in self.agreement_replicas:
            replica.resolve_nodes = self._resolve_nodes
            replica.on_membership_change = self._refresh_checkpoint_providers
            replica.setup(self.agreement_replicas, agreement_factory)

        self.admin = AdminClient(
            sim,
            f"{name_prefix}admin",
            Site(agreement_region, 1),
            self.agreement_replicas,
            fa=self.config.fa,
        )
        self.network.register(self.admin)

    # ------------------------------------------------------------------
    # Execution groups
    # ------------------------------------------------------------------
    def create_group_replicas(
        self, group_id: str, region: str, sites: Optional[List[Site]] = None
    ) -> ExecutionGroup:
        """Start the replica processes of a new group (not yet connected).

        ``sites`` overrides the default one-replica-per-zone placement, e.g.
        to spread an f=2 group over a nearby region's fault domains
        (paper's Fig. 11 setting).
        """
        if group_id in self.groups:
            raise ConfigurationError(f"group {group_id!r} already exists")
        size = self.config.execution_size
        if sites is not None and len(sites) < size:
            raise ConfigurationError("not enough sites for the execution group")
        group = ExecutionGroup(group_id=group_id, region=region)
        for index in range(size):
            site = sites[index] if sites is not None else Site(region, index + 1)
            replica = ExecutionReplica(
                self.sim,
                f"{group_id}-e{index}",
                site,
                group_id,
                self.app_factory(),
                self.config,
            )
            self.network.register(replica)
            group.replicas.append(replica)
        for replica in group.replicas:
            replica.setup(group.replicas, self.agreement_replicas)
        self.groups[group_id] = group
        return group

    def add_execution_group(
        self, group_id: str, region: str, sites: Optional[List[Site]] = None
    ) -> ExecutionGroup:
        """Statically bootstrap a group (wired before traffic flows)."""
        group = self.create_group_replicas(group_id, region, sites=sites)
        for replica in self.agreement_replicas:
            replica.connect_group(group_id, group.replicas)
        self._refresh_checkpoint_providers()
        return group

    def add_execution_group_dynamically(self, group_id: str, region: str) -> ExecutionGroup:
        """Runtime addition through the admin client (Section 3.6):
        the group starts first, then ``<AddGroup>`` is agreed on."""
        group = self.create_group_replicas(group_id, region)
        self.admin.add_group(group_id, group.member_names)
        return group

    def remove_execution_group(self, group_id: str) -> None:
        """Runtime removal through the admin client."""
        if group_id not in self.groups:
            raise ConfigurationError(f"no group {group_id!r}")
        self.admin.remove_group(group_id)

    def _resolve_nodes(self, names):
        nodes = []
        for name in names:
            node = self.network.nodes.get(name)
            if node is None:
                return None
            nodes.append(node)
        return nodes

    def _refresh_checkpoint_providers(self) -> None:
        """Execution replicas may fetch checkpoints from any group
        (Section 3.5); keep provider lists and trust anchors current."""
        all_replicas = [r for g in self.groups.values() for r in g.replicas]
        memberships = {
            gid: frozenset(group.member_names) for gid, group in self.groups.items()
        }
        for group in self.groups.values():
            for replica in group.replicas:
                others = [r for r in all_replicas if r.group_id != group.group_id]
                replica.set_checkpoint_providers(list(group.replicas) + others)
                if replica.cp is not None:
                    replica.cp.remote_groups = {
                        gid: members
                        for gid, members in memberships.items()
                        if gid != group.group_id
                    }

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def make_client(
        self,
        name: str,
        region: str,
        group_id: Optional[str] = None,
        zone: int = 1,
    ) -> SpiderClient:
        """Create a client bound to ``group_id`` (default: a group in its
        region, else the first group).

        A Spider-0E shard (``execute_locally``) executes in the agreement
        group: its clients talk to that group directly and need
        ``f_a + 1`` matching replies.
        """
        if self.execute_locally:
            group_id, replicas = AgreementReplica.reply_group, self.agreement_replicas
            faults = self.config.fa
        else:
            if group_id is None:
                group_id = self._nearest_group(region)
            replicas, faults = self.groups[group_id].replicas, self.config.fe
        client = SpiderClient(
            self.sim,
            name,
            Site(region, zone),
            group_id,
            replicas,
            fe=faults,
        )
        self.network.register(client)
        self.clients[name] = client
        return client

    def _nearest_group(self, region: str) -> str:
        for group_id, group in self.groups.items():
            if group.region == region:
                return group_id
        if not self.groups:
            raise ConfigurationError("no execution groups deployed")
        return next(iter(self.groups))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def group_of(self, group_id: str) -> ExecutionGroup:
        return self.groups[group_id]

    @property
    def all_nodes(self):
        nodes = list(self.agreement_replicas)
        for group in self.groups.values():
            nodes.extend(group.replicas)
        return nodes
