"""Declarative deployment API (specs, builder, sessions).

Describe a deployment as pure data, build it with one call, talk to it
through sharded sessions::

    from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build

    spec = ClusterSpec(shards=(
        ShardSpec("s0", groups=(GroupSpec("va", "virginia"),
                                GroupSpec("jp", "tokyo"))),
        ShardSpec("s1", groups=(GroupSpec("va2", "virginia"),
                                GroupSpec("jp2", "tokyo"))),
    ))
    cluster = build(sim, spec)
    session = cluster.session("alice", "tokyo")
    session.write("cart:42", ["milk"])        # routed to cart:42's shard
    session.read("cart:42")                   # weak (local) read
    session.strong_read("cart:42")            # ordered read
    session.close()                           # retires request subchannels

Shards are independent agreement domains over disjoint key ranges — the
cluster's epoch-stamped routing table (``cluster.range_map``) maps every
key to its owner — so a cluster scales writes with the shard count.  A
spec's ``middleware`` entries become the cluster's one chain
(``cluster.chain``), which every shard's operations pass through.  The
baselines use the same idiom via :class:`BftSpec` / :class:`HftSpec`.
"""

from repro.deploy.cluster import Cluster, build
from repro.deploy.middleware import (
    CLOSED,
    OVERLOAD,
    RATE_LIMIT,
    Middleware,
    MiddlewareChain,
    Rejected,
    Served,
)
from repro.deploy.session import Consistency, Session
from repro.deploy.spec import (
    BftSpec,
    ClusterSpec,
    GroupSpec,
    HftSpec,
    MiddlewareSpec,
    ShardSpec,
)

__all__ = [
    "CLOSED",
    "OVERLOAD",
    "RATE_LIMIT",
    "BftSpec",
    "Cluster",
    "ClusterSpec",
    "Consistency",
    "GroupSpec",
    "HftSpec",
    "Middleware",
    "MiddlewareChain",
    "MiddlewareSpec",
    "Rejected",
    "Served",
    "Session",
    "ShardSpec",
    "build",
]
