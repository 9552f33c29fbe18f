"""Deployment configuration for Spider."""

from __future__ import annotations

from dataclasses import dataclass
from repro.consensus.pbft.config import PbftConfig
from repro.errors import ConfigurationError
from repro.irmc import KINDS

#: Default availability-zone order for agreement groups (paper: the V-1 /
#: V-2 / V-4 / V-6 leader placement, continued for larger groups).  The
#: single source of truth — spec validation and shard wiring must agree
#: on it or a validated spec could build a different placement.
DEFAULT_AGREEMENT_ZONES = (1, 2, 4, 6, 3, 5, 7, 8, 9, 10)

#: Per-client request-subchannel window.  The paper uses 2: the last
#: forwarded request plus the next.  Both ends of a request channel read
#: it from here.
REQUEST_CAPACITY = 2

#: How long an agreement replica waits without a delivery before it
#: suspects its leader.  The group sits in one region's availability
#: zones, so it is sized to those links, not to the WAN (the BFT
#: baselines, which run PBFT across regions, keep 4000 ms).  Measured as
#: how long a view timer had run when a delivery reset it: at most 2.7 ms
#: on ``geo_write_closed`` and 8.4 ms on the CPU-saturated
#: ``flash_crowd_armed`` (seed 11, variants 0-2), so 100 ms is 12x the
#: fault-free maximum.  A recovered replica catching up used to wait up
#: to 169 ms here; it no longer arms its view timer while its state
#: transfer makes progress (``repro.consensus.pbft.replica``), so
#: catch-up does not bound this value any more.  ``leader_crash_open``
#: ordered p99 at seed 11, median over variants 0-2, at 200 / 100 / 50
#: ms: 278.9 / 239.6 / 235.0 ms (``docs/experiments.md``, "Failover").
AGREEMENT_VIEW_TIMEOUT_MS = 100.0


@dataclass
class SpiderConfig:
    """All tunables of a Spider deployment (paper Sections 3.2-3.5).

    Parameters
    ----------
    fa / fe:
        Faults tolerated by the agreement group (size ``3 fa + 1``) and by
        each execution group (size ``2 fe + 1``).
    irmc_kind:
        ``"rc"`` or ``"sc"`` — which IRMC implementation connects groups.
    ka / ke:
        Agreement / execution checkpoint intervals.  The commit channel's
        capacity must be at least ``ke`` for liveness (Section 3.4); it is
        sized ``max(ke, commit_capacity)``.
    ag_window:
        ``AG-WIN`` — how far agreement may run ahead of its last stable
        checkpoint (must be >= ``ka``).
    z:
        Global flow control: how many trailing execution groups the
        agreement group may leave behind per sequence number (Section 3.5).
    batch_size:
        Cap on end-to-end request batching: the consensus leader packs
        whatever requests queued up while its last instance was in flight
        into one agreement round (and one commit-channel ``Execute`` per
        execution group), at most ``batch_size`` of them.  No request
        waits on a clock; ``batch_size=1`` is the unbatched protocol.
    admins:
        Principals allowed to reconfigure the system (Section 3.6).
    """

    fa: int = 1
    fe: int = 1
    irmc_kind: str = "rc"
    commit_capacity: int = 64
    ka: int = 16
    ke: int = 16
    ag_window: int = 64
    z: int = 0
    batch_size: int = 64
    admins: tuple = ("admin",)

    def validate(self) -> None:
        if self.fa < 0 or self.fe < 1:
            # fa = 0 degenerates the agreement group to a single sequencer
            # (useful with non-BFT agreement black-boxes in tests/demos).
            raise ConfigurationError("fa must be >= 0 and fe >= 1")
        if self.irmc_kind not in KINDS:
            raise ConfigurationError(f"unknown IRMC kind {self.irmc_kind!r}")
        if self.ag_window < self.ka:
            raise ConfigurationError("ag_window must be >= ka (Fig. 17 L. 4)")
        if self.commit_channel_capacity < self.ke:
            raise ConfigurationError("commit capacity must be >= ke (Section 3.4)")
        if self.z < 0:
            raise ConfigurationError("z must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")

    @property
    def agreement_size(self) -> int:
        return 3 * self.fa + 1

    @property
    def execution_size(self) -> int:
        return 2 * self.fe + 1

    @property
    def commit_channel_capacity(self) -> int:
        return max(self.ke, self.commit_capacity)

    def pbft_config(self) -> PbftConfig:
        return PbftConfig(
            f=self.fa,
            view_timeout_ms=AGREEMENT_VIEW_TIMEOUT_MS,
            window=max(PbftConfig.window, self.ag_window * 4),
            batch_size=self.batch_size,
        )
