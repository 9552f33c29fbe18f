"""repro — a reproduction of *Resilient Cloud-based Replication with Low
Latency* (Eischer & Distler, Middleware 2020): the Spider architecture, its
IRMC channel abstraction, and the BFT / HFT / BFT-WV baselines it is
evaluated against, all running on a deterministic discrete-event simulator.

Quick tour
----------
>>> from repro import ClusterSpec, GroupSpec, ShardSpec, Simulator, build
>>> sim = Simulator(seed=1)
>>> spec = ClusterSpec(shards=(ShardSpec("s0", groups=(GroupSpec("us", "virginia"),)),))
>>> cluster = build(sim, spec)
>>> client = cluster.make_client("alice", "virginia", group_id="us")
>>> future = client.write(("put", "k", "v"))
>>> sim.run(until=1_000.0)
>>> future.value
('ok', 1)

Sub-packages
------------
``repro.sim``         deterministic event loop, coroutine processes, CPU model
``repro.net``         cloud topology (regions / availability zones), WAN model
``repro.crypto``      structural signatures/MACs with a CPU cost model
``repro.app``         replicated applications (key-value store, counter)
``repro.consensus``   agreement black-boxes: PBFT (+ weighted voting), Raft
``repro.checkpoints`` the f+1-certificate checkpoint component
``repro.irmc``        inter-regional message channels (RC and SC variants)
``repro.core``        Spider itself (clients, execution/agreement groups)
``repro.deploy``      declarative ClusterSpec -> build() -> sharded sessions
``repro.baselines``   BFT, BFT-WV and HFT (Steward-style) comparison systems
``repro.workload``    closed-loop client drivers
``repro.metrics``     latency percentiles, time series, message tracing
``repro.faults``      Byzantine fault injection
``repro.experiments`` one runner per paper figure (``python -m repro.experiments``)
"""

from repro.core import Shard, SpiderClient, SpiderConfig
from repro.deploy import ClusterSpec, Consistency, GroupSpec, Session, ShardSpec, build
from repro.net import Network, Site, Topology
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "Network",
    "Topology",
    "Site",
    "Shard",
    "SpiderConfig",
    "SpiderClient",
    "ClusterSpec",
    "ShardSpec",
    "GroupSpec",
    "Session",
    "Consistency",
    "build",
    "__version__",
]
