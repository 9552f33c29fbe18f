"""Sites (region + availability zone) and the latency model between them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from repro.net import latency as latency_data


class LinkProfile(NamedTuple):
    """Memoised per-site-pair delivery parameters (see ``link_profile``)."""

    one_way_ms: float
    #: serialization delay is ``size_bytes * 8.0 / ser_divisor`` — kept as a
    #: divisor (not a reciprocal factor) so cached results stay bit-identical
    #: to the uncached ``serialization_ms`` arithmetic.
    ser_divisor: float
    is_wan: bool


@dataclass(frozen=True, order=True)
class Site:
    """A location in the cloud: a region and an availability-zone index.

    Availability zones within a region are distinct fault domains hosted at
    distinct physical sites (paper Section 3.1); the simulator gives them a
    small but non-zero mutual latency.
    """

    region: str
    zone: int = 1

    def __str__(self) -> str:
        return f"{self.region}-{self.zone}"


class Topology:
    """Latency oracle between sites.

    Parameters
    ----------
    region_rtt_ms:
        Mapping from ``frozenset({region_a, region_b})`` to round-trip time;
        defaults to the EC2-calibrated table.
    intra_region_rtt_ms / intra_zone_rtt_ms:
        Round trips between zones of one region / within one zone.
    wan_bandwidth_mbps / lan_bandwidth_mbps:
        Per-flow serialization bandwidth; adds ``bits / bandwidth`` to each
        message's delivery latency so large messages cost more than small
        ones.
    """

    def __init__(
        self,
        region_rtt_ms: Optional[Dict[FrozenSet[str], float]] = None,
        intra_region_rtt_ms: float = latency_data.INTRA_REGION_RTT_MS,
        intra_zone_rtt_ms: float = latency_data.INTRA_ZONE_RTT_MS,
        wan_bandwidth_mbps: float = 300.0,
        lan_bandwidth_mbps: float = 2000.0,
    ):
        self.region_rtt_ms = dict(
            latency_data.EC2_REGION_RTT_MS if region_rtt_ms is None else region_rtt_ms
        )
        self.intra_region_rtt_ms = intra_region_rtt_ms
        self.intra_zone_rtt_ms = intra_zone_rtt_ms
        self.wan_bandwidth_mbps = wan_bandwidth_mbps
        self.lan_bandwidth_mbps = lan_bandwidth_mbps
        #: (site, site) -> LinkProfile; latency tables are fixed after
        #: construction, so profiles are computed once per ordered pair.
        #: Call :meth:`invalidate_cache` after changing any table in place.
        self._profiles: Dict[Tuple[Site, Site], LinkProfile] = {}
        #: Bumped by :meth:`invalidate_cache`; consumers holding derived
        #: caches (e.g. ``Network``'s per-node-pair profiles) compare this
        #: to drop their copies.
        self.cache_version = 0

    def invalidate_cache(self) -> None:
        """Forget memoised link profiles (after editing latency tables)."""
        self._profiles.clear()
        self.cache_version += 1

    def link_profile(self, a: Site, b: Site) -> LinkProfile:
        """Memoised ``(one_way_ms, ser_divisor, is_wan)``.

        The hot-path summary of this oracle: propagation latency, the
        serialization divisor and the WAN flag, computed once per site pair
        instead of once per message.
        """
        profile = self._profiles.get((a, b))
        if profile is None:
            wan = a.region != b.region
            bandwidth = self.wan_bandwidth_mbps if wan else self.lan_bandwidth_mbps
            profile = LinkProfile(
                one_way_ms=self.one_way_ms(a, b),
                ser_divisor=bandwidth * 1000.0,
                is_wan=wan,
            )
            self._profiles[(a, b)] = profile
        return profile

    def rtt_ms(self, a: Site, b: Site) -> float:
        """Round-trip time between two sites."""
        if a.region != b.region:
            key = frozenset((a.region, b.region))
            try:
                return self.region_rtt_ms[key]
            except KeyError:
                raise KeyError(f"no latency data for {a} <-> {b}") from None
        if a.zone != b.zone:
            return self.intra_region_rtt_ms
        return self.intra_zone_rtt_ms

    def one_way_ms(self, a: Site, b: Site) -> float:
        """One-way propagation latency between two sites."""
        return self.rtt_ms(a, b) / 2.0

    def is_wan(self, a: Site, b: Site) -> bool:
        """Whether traffic between the sites crosses region boundaries."""
        return a.region != b.region

    def serialization_ms(self, a: Site, b: Site, size_bytes: int) -> float:
        """Transmission delay contributed by message size."""
        bandwidth = (
            self.wan_bandwidth_mbps if self.is_wan(a, b) else self.lan_bandwidth_mbps
        )
        # mbps -> bits per millisecond is numerically the same factor (1e3).
        return (size_bytes * 8.0) / (bandwidth * 1000.0)
