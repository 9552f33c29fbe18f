"""Simulated cryptography with a calibrated CPU cost model.

The paper's prototype authenticates messages with HMAC-SHA-256 (MACs),
1024-bit RSA signatures (clients, IRMC-internal messages) and Shoup
threshold RSA (HFT/Steward).  This package substitutes *structural*
primitives: a signature is a token ``(signer, digest)`` that verifiers check
by recomputing the digest.  Nodes cannot forge tokens for other principals
because attacker implementations in this repository only ever construct
tokens through :func:`sign`-style helpers bound to their own identity — the
substitution preserves the *protocol-visible* behaviour (who can produce
which authenticator) while replacing big-number arithmetic with a CPU-time
charge (see :class:`CostModel`) that reproduces crypto's latency and
throughput effects.
"""

from repro.crypto.costs import CostModel, active_cost_model, set_cost_model, use_cost_model
from repro.crypto.primitives import (
    Mac,
    MacVector,
    Signature,
    content_digest,
    digest,
    make_mac,
    make_mac_vector,
    sign,
    sign_many,
    verify,
    verify_mac,
    verify_mac_vector,
)
from repro.crypto.threshold import ThresholdSigShare, ThresholdSignature, combine_shares, sign_share, verify_threshold

__all__ = [
    "CostModel",
    "active_cost_model",
    "set_cost_model",
    "use_cost_model",
    "Signature",
    "Mac",
    "MacVector",
    "digest",
    "content_digest",
    "sign",
    "sign_many",
    "verify",
    "make_mac",
    "verify_mac",
    "make_mac_vector",
    "verify_mac_vector",
    "ThresholdSigShare",
    "ThresholdSignature",
    "sign_share",
    "combine_shares",
    "verify_threshold",
]
