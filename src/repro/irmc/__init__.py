"""Inter-regional message channels (IRMCs), paper Sections 3.2 and 4.

Two implementations with identical semantics and interfaces:

* **IRMC-RC** (:mod:`repro.irmc.rc`) — receiver-side collection; every
  sender ships a signed copy to every receiver.  Cheapest per-message
  sender CPU, highest WAN volume.
* **IRMC-SC** (:mod:`repro.irmc.sc`) — sender-side collection; collectors
  assemble ``f_s + 1`` signature shares into a certificate and ship one WAN
  message per receiver.  Much lower WAN volume at higher sender CPU.

Use :func:`make_channel` to build either kind.
"""

from repro.irmc.base import IrmcConfig, ReceiverEndpointBase, SenderEndpointBase, TooOld
from repro.irmc.rc import RcReceiverEndpoint, RcSenderEndpoint
from repro.irmc.sc import ScReceiverEndpoint, ScSenderEndpoint

#: kind -> (sender endpoint class, receiver endpoint class): the one place
#: that says which classes an IRMC kind means.
ENDPOINTS = {
    "rc": (RcSenderEndpoint, RcReceiverEndpoint),
    "sc": (ScSenderEndpoint, ScReceiverEndpoint),
}
KINDS = tuple(ENDPOINTS)


def make_channel(kind, tag, sender_nodes, receiver_nodes, config=None):
    """Create an IRMC of ``kind`` ("rc" or "sc") between two node groups.

    Returns ``(senders, receivers)``: dicts mapping node name to the
    endpoint hosted on that node.
    """
    if kind not in ENDPOINTS:
        raise ValueError(f"unknown IRMC kind {kind!r}; expected one of {KINDS}")
    config = config or IrmcConfig()
    sender_cls, receiver_cls = ENDPOINTS[kind]
    senders = {
        node.name: sender_cls(node, tag, sender_nodes, receiver_nodes, config)
        for node in sender_nodes
    }
    receivers = {
        node.name: receiver_cls(node, tag, receiver_nodes, sender_nodes, config)
        for node in receiver_nodes
    }
    return senders, receivers


__all__ = [
    "IrmcConfig",
    "TooOld",
    "SenderEndpointBase",
    "ReceiverEndpointBase",
    "RcSenderEndpoint",
    "RcReceiverEndpoint",
    "ScSenderEndpoint",
    "ScReceiverEndpoint",
    "make_channel",
    "ENDPOINTS",
    "KINDS",
]
