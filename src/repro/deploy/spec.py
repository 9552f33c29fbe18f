"""Declarative deployment specifications.

A deployment is *described* as pure data and materialised by
:func:`repro.deploy.build`:

* :class:`ClusterSpec` — one or more :class:`ShardSpec`\\ s (each an
  agreement group plus its execution groups, i.e. one complete "paper
  deployment"), the shared :class:`~repro.core.config.SpiderConfig`, the
  application factory, the agreement factory and the one session
  middleware chain.  Multiple shards are the repo's first scale-out axis:
  independent agreement groups own disjoint key ranges (the built
  cluster's :class:`~repro.elastic.rangemap.RangeMap`).
* :class:`BftSpec` / :class:`HftSpec` — the comparison baselines, in the
  same describe-then-build idiom.

Specs validate *before* any node is constructed, so configuration
mistakes (duplicate ids, under-provisioned regions) surface as
:class:`~repro.errors.ConfigurationError` with the offending id in the
message rather than as a half-built system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

from repro.app.kvstore import KVStore
from repro.core.config import DEFAULT_AGREEMENT_ZONES, SpiderConfig
from repro.deploy.middleware import validate_middleware
from repro.errors import ConfigurationError
from repro.net import Site

__all__ = [
    "GroupSpec",
    "MiddlewareSpec",
    "ShardSpec",
    "ClusterSpec",
    "BftSpec",
    "HftSpec",
]

@dataclass(frozen=True)
class MiddlewareSpec:
    """One session-middleware entry, as pure data.

    ``options`` is a sorted tuple of ``(key, value)`` pairs so the spec
    stays hashable; build entries with :meth:`of`.  The entries of
    ``ClusterSpec.middleware`` form the cluster's one chain, which every
    shard's operations pass through (see :mod:`repro.deploy.middleware`).
    """

    name: str
    options: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def of(name: str, **options) -> "MiddlewareSpec":
        return MiddlewareSpec(name, tuple(sorted(options.items())))

    @staticmethod
    def from_dict(data: Mapping) -> "MiddlewareSpec":
        """``{"name": ..., "options": {...}}`` (options optional)."""
        if "name" not in data:
            raise ConfigurationError(
                f"middleware entry needs a 'name' key, got {sorted(data)}"
            )
        unknown = set(data) - {"name", "options"}
        if unknown:
            raise ConfigurationError(
                f"middleware entry {data['name']!r}: unknown keys {sorted(unknown)}"
            )
        return MiddlewareSpec.of(data["name"], **dict(data.get("options", {})))

    def options_dict(self) -> dict:
        return dict(self.options)

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("middleware name must be non-empty")
        validate_middleware(self.name, self.options_dict())


@dataclass(frozen=True)
class GroupSpec:
    """One execution group: ``2 fe + 1`` replicas hosting the app.

    ``sites`` overrides the default one-replica-per-zone placement in
    ``region`` (e.g. to spread an f=2 group over a nearby region's fault
    domains, the paper's Fig. 11 setting).
    """

    group_id: str
    region: str
    sites: Optional[Tuple[Site, ...]] = None

    @staticmethod
    def from_dict(data: Mapping) -> "GroupSpec":
        unknown = set(data) - {"group_id", "region"}
        if unknown:
            raise ConfigurationError(
                f"group entry: unknown keys {sorted(unknown)} "
                "(declarative groups take 'group_id' and 'region')"
            )
        return GroupSpec(data.get("group_id", ""), data.get("region", ""))


@dataclass(frozen=True)
class ShardSpec:
    """One agreement domain: an agreement group plus its execution groups.

    Node names inside a shard are ``ag0``..., ``{group_id}-e0``...,
    ``admin``; multi-shard clusters prefix the agreement/admin names with
    ``{shard_id}-`` to keep them unique, while a single-shard cluster
    keeps the bare names.
    """

    shard_id: str
    groups: Tuple[GroupSpec, ...] = ()
    agreement_region: str = "virginia"
    agreement_zones: Optional[Tuple[int, ...]] = None
    agreement_sites: Optional[Tuple[Site, ...]] = None

    @staticmethod
    def from_dict(data: Mapping) -> "ShardSpec":
        known = {"shard_id", "groups", "agreement_region", "agreement_zones"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"shard entry {data.get('shard_id')!r}: unknown keys "
                f"{sorted(unknown)} (known: {sorted(known)})"
            )
        zones = data.get("agreement_zones")
        return ShardSpec(
            shard_id=data.get("shard_id", ""),
            groups=tuple(GroupSpec.from_dict(g) for g in data.get("groups", ())),
            agreement_region=data.get("agreement_region", "virginia"),
            agreement_zones=tuple(zones) if zones is not None else None,
        )


@dataclass(frozen=True)
class ClusterSpec:
    """A complete deployment: shards + config + app + agreement backend.

    ``agreement_factory`` selects the agreement black-box: a callable
    ``(node, peers) -> Agreement``, or ``None`` for PBFT configured from
    ``config``.  ``execute_locally`` builds the paper's Spider-0E
    variant (application hosted on the agreement replicas, no IRMCs) and
    is restricted to single-shard specs.
    """

    shards: Tuple[ShardSpec, ...]
    config: SpiderConfig = field(default_factory=SpiderConfig)
    app_factory: Callable = KVStore
    agreement_factory: Optional[Callable] = None
    execute_locally: bool = False
    #: the session middleware chain every shard's operations pass through
    #: (declared order = outermost first; see :mod:`repro.deploy.middleware`).
    middleware: Tuple[MiddlewareSpec, ...] = ()

    # ------------------------------------------------------------------
    @staticmethod
    def single(
        regions: Tuple[str, ...] = ("virginia",),
        agreement_region: str = "virginia",
        agreement_zones: Optional[Tuple[int, ...]] = None,
        config: Optional[SpiderConfig] = None,
        app_factory: Callable = KVStore,
        shard_id: str = "s0",
        **kwargs,
    ) -> "ClusterSpec":
        """The common single-shard shape: one group per listed region,
        each group named after its region (the historical layout)."""
        shard = ShardSpec(
            shard_id=shard_id,
            agreement_region=agreement_region,
            agreement_zones=agreement_zones,
            groups=tuple(GroupSpec(region, region) for region in regions),
        )
        return ClusterSpec(
            shards=(shard,),
            config=config or SpiderConfig(),
            app_factory=app_factory,
            **kwargs,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(data: Mapping) -> "ClusterSpec":
        """Build a :class:`ClusterSpec` from plain data (dicts, lists, scalars).

        ``{"shards": [{...}, ...], "config": {...}, "middleware": [...]}``:
        ``shards`` are :meth:`ShardSpec.from_dict` entries, ``config`` a
        mapping of :class:`~repro.core.config.SpiderConfig` field
        overrides and ``middleware`` a list of ``{"name", "options"}``
        entries.  All scalar data — no callables needed — so plain data
        fully describes the topology.
        """
        known = {"shards", "config", "execute_locally", "middleware"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"topology: unknown keys {sorted(unknown)} (known: {sorted(known)})"
            )
        config_data = data.get("config", {})
        if isinstance(config_data, SpiderConfig):
            config = config_data
        else:
            try:
                config = SpiderConfig(**dict(config_data))
            except TypeError as error:
                raise ConfigurationError(f"topology config: {error}") from None
        return ClusterSpec(
            shards=tuple(ShardSpec.from_dict(s) for s in data.get("shards", ())),
            config=config,
            execute_locally=bool(data.get("execute_locally", False)),
            middleware=tuple(
                MiddlewareSpec.from_dict(m) for m in data.get("middleware", ())
            ),
        )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.shards:
            raise ConfigurationError("ClusterSpec needs at least one shard")
        self.config.validate()
        if self.execute_locally and len(self.shards) > 1:
            raise ConfigurationError(
                "execute_locally (Spider-0E) supports single-shard specs only"
            )
        for entry in self.middleware:
            entry.validate()
        seen_shards = set()
        seen_groups = set()
        for shard in self.shards:
            if not shard.shard_id:
                raise ConfigurationError("shard_id must be non-empty")
            if shard.shard_id in seen_shards:
                raise ConfigurationError(f"duplicate shard id {shard.shard_id!r}")
            seen_shards.add(shard.shard_id)
            if not shard.agreement_region:
                raise ConfigurationError(
                    f"shard {shard.shard_id!r}: agreement region must be non-empty"
                )
            size = self.config.agreement_size
            if shard.agreement_sites is not None:
                if len(shard.agreement_sites) < size:
                    raise ConfigurationError(
                        f"shard {shard.shard_id!r}: {len(shard.agreement_sites)} "
                        f"agreement sites for a group of {size}"
                    )
            else:
                zones = shard.agreement_zones or DEFAULT_AGREEMENT_ZONES
                if len(zones) < size:
                    raise ConfigurationError(
                        f"shard {shard.shard_id!r}: {len(zones)} availability "
                        f"zones for an agreement group of {size}"
                    )
            if not shard.groups and not self.execute_locally:
                raise ConfigurationError(
                    f"shard {shard.shard_id!r} has no execution groups "
                    "(only execute_locally specs may omit them)"
                )
            for group in shard.groups:
                if not group.group_id:
                    raise ConfigurationError(
                        f"shard {shard.shard_id!r}: group_id must be non-empty"
                    )
                if group.group_id in seen_groups:
                    # Group ids are cluster-global: replicas register as
                    # ``{group_id}-e{i}`` in one shared network namespace.
                    raise ConfigurationError(
                        f"duplicate group id {group.group_id!r}"
                    )
                seen_groups.add(group.group_id)
                if not group.region:
                    raise ConfigurationError(
                        f"group {group.group_id!r}: region must be non-empty"
                    )
                if group.sites is not None and len(group.sites) < self.config.execution_size:
                    raise ConfigurationError(
                        f"group {group.group_id!r}: region {group.region!r} "
                        f"declared with {len(group.sites)} sites, needs "
                        f"{self.config.execution_size}"
                    )

    def shard_ids(self) -> Tuple[str, ...]:
        return tuple(shard.shard_id for shard in self.shards)


# ----------------------------------------------------------------------
# Baseline specs (the paper's comparison systems, Fig. 1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BftSpec:
    """Flat geo-distributed PBFT (paper Fig. 1a); ``weights`` turns it
    into BFT-WV (weighted voting a la WHEAT).  ``leader`` defaults to the
    first region."""

    regions: Tuple[str, ...]
    leader: Optional[str] = None
    f: int = 1
    weights: Optional[Tuple[Tuple[str, float], ...]] = None
    app_factory: Callable = KVStore

    def ordered_regions(self) -> Tuple[str, ...]:
        leader = self.leader or self.regions[0]
        return (leader,) + tuple(r for r in self.regions if r != leader)

    def validate(self) -> None:
        if not self.regions:
            raise ConfigurationError("BftSpec needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise ConfigurationError("BftSpec regions must be unique")
        if self.leader is not None and self.leader not in self.regions:
            raise ConfigurationError(f"leader {self.leader!r} not in regions")
        if len(self.regions) < 3 * self.f + 1:
            raise ConfigurationError(
                f"BFT with f={self.f} needs >= {3 * self.f + 1} regions"
            )
        unknown = {region for region, _ in self.weights or ()} - set(self.regions)
        if unknown:
            raise ConfigurationError(f"weights for unknown regions: {sorted(unknown)}")


@dataclass(frozen=True)
class HftSpec:
    """Steward-style hierarchical replication (paper Fig. 1b): one
    ``3f + 1`` cluster per region; ``leader`` names the leader site."""

    regions: Tuple[str, ...]
    leader: Optional[str] = None
    f: int = 1
    site_layout: Optional[Tuple[Tuple[str, Tuple[Site, ...]], ...]] = None
    app_factory: Callable = KVStore

    def ordered_regions(self) -> Tuple[str, ...]:
        leader = self.leader or self.regions[0]
        return (leader,) + tuple(r for r in self.regions if r != leader)

    def validate(self) -> None:
        if len(self.regions) < 2:
            raise ConfigurationError("HFT needs at least two sites")
        if len(set(self.regions)) != len(self.regions):
            raise ConfigurationError("HftSpec regions must be unique")
        if self.leader is not None and self.leader not in self.regions:
            raise ConfigurationError(f"leader {self.leader!r} not in regions")
        for region, sites in self.site_layout or ():
            if region not in self.regions:
                raise ConfigurationError(f"site layout for unknown region {region!r}")
            if len(sites) < 3 * self.f + 1:
                raise ConfigurationError(
                    f"site layout for {region} too small: HFT with f={self.f} "
                    f"needs {3 * self.f + 1} sites, got {len(sites)}"
                )
