"""Node-graph wiring for one Spider shard.

:class:`Shard` owns the node graph of one agreement domain: the agreement
group in one region (one replica per availability zone), execution groups
near clients, and the clients themselves.  It is built from its
:class:`~repro.deploy.ShardSpec` by :func:`repro.deploy.build` and
reconfigured at runtime through the
:class:`~repro.core.client.AdminClient` (Section 3.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.consensus.pbft.replica import PbftReplica
from repro.core.agreement import AgreementReplica
from repro.core.client import AdminClient, SpiderClient
from repro.core.config import DEFAULT_AGREEMENT_ZONES
from repro.core.execution import ExecutionReplica
from repro.errors import ConfigurationError
from repro.net import Network, Site
from repro.sim import Simulator

if TYPE_CHECKING:
    from repro.deploy.spec import ClusterSpec, ShardSpec


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

    A shard is one agreement group plus the execution groups it feeds,
    built from ``shard_spec`` within the (validated) cluster ``spec``.
    In a multi-shard spec, agreement and admin names carry a
    ``{shard_id}-`` prefix so they stay unique on the shared network, and
    each shard gets its own admin principal; a single-shard spec uses
    the bare names (``ag0`` .. ``ag{n}``, ``admin``).  A ``None``
    ``spec.agreement_factory`` means PBFT.

    Example
    -------
    ::

        sim = Simulator(seed=1)
        cluster = build(sim, ClusterSpec(shards=(ShardSpec("s0", groups=(
            GroupSpec("va", "virginia"), GroupSpec("jp", "tokyo"))),)))
        client = cluster.system.make_client("c1", "tokyo", group_id="jp")
        future = client.write(("put", "k", "v"))
        sim.run(until=1000)
        assert future.done
    """

    def __init__(
        self, sim: Simulator, network: Network, spec: ClusterSpec, shard_spec: ShardSpec
    ):
        prefix = f"{shard_spec.shard_id}-" if len(spec.shards) > 1 else ""
        self.sim = sim
        self.network = network
        self.shard_id = shard_spec.shard_id
        self.config = spec.config
        if prefix:
            self.config = replace(spec.config, admins=(f"{prefix}admin",))
        self.app_factory = spec.app_factory
        self.execute_locally = spec.execute_locally
        self.groups: Dict[str, ExecutionGroup] = {}
        self.clients: Dict[str, SpiderClient] = {}

        agreement_factory = spec.agreement_factory
        if agreement_factory is None:
            pbft_config = self.config.pbft_config()
            agreement_factory = lambda node, peers: PbftReplica(  # noqa: E731
                node, "pbft-ag", peers, pbft_config
            )
        region = shard_spec.agreement_region
        sites = shard_spec.agreement_sites or [
            Site(region, zone)
            for zone in shard_spec.agreement_zones or DEFAULT_AGREEMENT_ZONES
        ]
        self.agreement_replicas: List[AgreementReplica] = []
        for index in range(self.config.agreement_size):
            replica = AgreementReplica(
                sim,
                f"{prefix}ag{index}",
                sites[index],
                self.config,
                execute_locally=self.execute_locally,
                app=self.app_factory() if self.execute_locally else None,
            )
            network.register(replica)
            self.agreement_replicas.append(replica)
        for replica in self.agreement_replicas:
            replica.resolve_nodes = self._resolve_nodes
            replica.on_membership_change = self._refresh_checkpoint_providers
            replica.setup(self.agreement_replicas, agreement_factory)

        self.admin = AdminClient(
            sim,
            f"{prefix}admin",
            Site(region, 1),
            self.agreement_replicas,
            fa=self.config.fa,
        )
        network.register(self.admin)

        # Static bootstrap: each group is wired before traffic flows.
        for group_spec in shard_spec.groups:
            group = self.create_group_replicas(
                group_spec.group_id, group_spec.region, sites=group_spec.sites
            )
            for replica in self.agreement_replicas:
                replica.connect_group(group.group_id, group.replicas)
        self._refresh_checkpoint_providers()

    # ------------------------------------------------------------------
    # Execution groups
    # ------------------------------------------------------------------
    def create_group_replicas(
        self, group_id: str, region: str, sites: Optional[Sequence[Site]] = None
    ) -> ExecutionGroup:
        """Start the replica processes of a new group (not yet connected).

        ``sites`` overrides the default one-replica-per-zone placement, e.g.
        to spread an f=2 group over a nearby region's fault domains
        (paper's Fig. 11 setting).
        """
        if group_id in self.groups:
            raise ConfigurationError(f"group {group_id!r} already exists")
        group = ExecutionGroup(group_id=group_id, region=region)
        for index in range(self.config.execution_size):
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
            elif group_id not in self.groups:
                raise ConfigurationError(
                    f"shard {self.shard_id!r} hosts no group {group_id!r}; "
                    f"its groups: {sorted(self.groups)}"
                )
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
