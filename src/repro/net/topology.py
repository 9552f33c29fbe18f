"""Sites (region + availability zone) and the latency model between them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.net import latency as latency_data


class LinkProfile(NamedTuple):
    """Per-site-pair delivery parameters (see ``link_profile``)."""

    one_way_ms: float
    #: serialization delay is ``size_bytes * 8.0 / ser_divisor`` — kept as a
    #: divisor (not a reciprocal factor) so it stays bit-identical to the
    #: ``serialization_ms`` arithmetic.
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


#: Per-flow serialization bandwidth: each message's delivery latency gains
#: ``bits / bandwidth``, so large messages cost more than small ones.
WAN_BANDWIDTH_MBPS = 300.0
LAN_BANDWIDTH_MBPS = 2000.0


class Topology:
    """Latency oracle between sites: the EC2-calibrated region table
    (``latency.EC2_REGION_RTT_MS``), ``INTRA_REGION_RTT_MS`` between zones
    of one region, ``INTRA_ZONE_RTT_MS`` within a zone, and the WAN / LAN
    serialization bandwidths above."""

    def link_profile(self, a: Site, b: Site) -> LinkProfile:
        """``(one_way_ms, ser_divisor, is_wan)``: the hot-path summary of
        this oracle, which ``Network`` caches once per node pair."""
        wan = a.region != b.region
        bandwidth = WAN_BANDWIDTH_MBPS if wan else LAN_BANDWIDTH_MBPS
        return LinkProfile(self.one_way_ms(a, b), bandwidth * 1000.0, wan)

    def rtt_ms(self, a: Site, b: Site) -> float:
        """Round-trip time between two sites."""
        if a.region != b.region:
            key = frozenset((a.region, b.region))
            try:
                return latency_data.EC2_REGION_RTT_MS[key]
            except KeyError:
                raise KeyError(f"no latency data for {a} <-> {b}") from None
        if a.zone != b.zone:
            return latency_data.INTRA_REGION_RTT_MS
        return latency_data.INTRA_ZONE_RTT_MS

    def one_way_ms(self, a: Site, b: Site) -> float:
        """One-way propagation latency between two sites."""
        return self.rtt_ms(a, b) / 2.0

    def is_wan(self, a: Site, b: Site) -> bool:
        """Whether traffic between the sites crosses region boundaries."""
        return a.region != b.region

    def serialization_ms(self, a: Site, b: Site, size_bytes: int) -> float:
        """Transmission delay contributed by message size."""
        bandwidth = WAN_BANDWIDTH_MBPS if self.is_wan(a, b) else LAN_BANDWIDTH_MBPS
        # mbps -> bits per millisecond is numerically the same factor (1e3).
        return (size_bytes * 8.0) / (bandwidth * 1000.0)
