"""Composable traffic-shaping middleware on the session path.

The paper positions Spider as a replication *middleware*; this module is
the client-side half of that story: a chain of interception hooks wrapped
around :class:`~repro.deploy.session.Session` operations, declared as
pure data on the :class:`~repro.deploy.spec.ClusterSpec` (see
``MiddlewareSpec``) and assembled once per cluster (``Cluster.chain``).

Protocol
--------
A middleware implements two hooks::

    on_op(ctx, op)          -> op | Rejected | Served
    on_reply(ctx, op, result)

``on_op`` runs before the operation is queued, in declared order
(first entry outermost).  Returning the op passes it down the chain;
returning :class:`Rejected` sheds it (the caller's future resolves with
the marker, nothing reaches the wire); returning :class:`Served` answers
it locally (read cache hits).  ``on_reply`` runs on completion in
reverse order, for every middleware whose ``on_op`` already ran — so an
outer metrics middleware observes sheds performed by inner middlewares.

Operations shed by ``Session.close`` (queued behind a shard backlog at
close time) complete through the same ``on_reply`` path with
``Rejected(CLOSED)``, so the accounting identity *offered = completed +
served + shed* holds exactly.

One chain serves every shard of a cluster: per-shard state (admission
depth) lives *inside* each instance keyed by ``op.shard_id``, and
per-session state keyed by the :class:`OpContext`'s session, dropped by
``on_session_close``.  An empty chain takes none of these code paths:
the session's fast path is untouched and runs byte-identical to a spec
without middleware.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.metrics import percentile

__all__ = [
    "CLOSED",
    "OVERLOAD",
    "RATE_LIMIT",
    "Middleware",
    "MiddlewareChain",
    "Op",
    "OpContext",
    "Rejected",
    "Served",
    "resolve_middleware",
    "validate_middleware",
]

#: Rejection reasons.
OVERLOAD = "overload"
RATE_LIMIT = "rate-limit"
CLOSED = "closed"


class Rejected:
    """Terminal result of a shed operation (the future resolves with this)."""

    __slots__ = ("reason", "by")

    def __init__(self, reason: str, by: str = ""):
        self.reason = reason
        self.by = by

    def __repr__(self) -> str:
        return f"Rejected(reason={self.reason!r}, by={self.by!r})"


class Served:
    """An operation answered locally by a middleware (read cache hit)."""

    __slots__ = ("value", "by")

    def __init__(self, value: Any, by: str = ""):
        self.value = value
        self.by = by

    def __repr__(self) -> str:
        return f"Served(value={self.value!r}, by={self.by!r})"


class Op:
    """One session operation travelling through the chain.

    ``scratch`` is per-op middleware state (e.g. the admission middleware
    marks ops it counted so its decrement on reply is exact even when the
    op is later shed by ``Session.close``).
    """

    __slots__ = ("kind", "key", "operation", "shard_id", "issued_at", "scratch")

    def __init__(self, kind: str, key: Any, operation: Tuple, shard_id: str, issued_at: float):
        self.kind = kind
        self.key = key
        self.operation = operation
        self.shard_id = shard_id
        self.issued_at = issued_at
        self.scratch: Dict[str, Any] = {}

    @property
    def ordered(self) -> bool:
        return self.kind != "weak-read"

    def __repr__(self) -> str:
        return f"Op({self.kind!r}, {self.key!r}, shard={self.shard_id!r})"


class OpContext:
    """The (session, shard) scope a chain invocation runs in."""

    __slots__ = ("session", "shard_id")

    def __init__(self, session, shard_id: str):
        self.session = session
        self.shard_id = shard_id

    @property
    def session_name(self) -> str:
        return self.session.name

    @property
    def now(self) -> float:
        return self.session.cluster.sim.now

    @property
    def closed(self) -> bool:
        return self.session.closed


class Middleware:
    """Base class: default hooks pass everything through unchanged."""

    #: registry key; subclasses must override.
    name = "middleware"

    @classmethod
    def validate_options(cls, options: Dict[str, Any]) -> None:
        """Reject malformed options at spec-validation time (hook)."""
        if options:
            raise ConfigurationError(
                f"middleware {cls.name!r} takes no options, got {sorted(options)}"
            )

    def on_op(self, ctx: OpContext, op: Op):
        return op

    def on_reply(self, ctx: OpContext, op: Op, result: Any) -> None:
        pass

    def on_session_close(self, ctx: OpContext) -> None:
        """Drop per-session state for ``ctx.session_name`` (hook)."""

    def snapshot(self) -> Dict[str, Any]:
        """Observable counters/gauges (metrics surface; hook)."""
        return {}


class MiddlewareChain:
    """An ordered list of middleware instances (a cluster's one chain)."""

    __slots__ = ("middlewares",)

    def __init__(self, middlewares: List[Middleware]):
        self.middlewares = list(middlewares)

    def admit(self, ctx: OpContext, op: Op):
        """Run ``on_op`` down the chain.

        Returns the (possibly replaced) op, or the Rejected/Served marker
        of the middleware that short-circuited — in which case the
        middlewares *above* it already see the outcome via ``on_reply``
        (the shedding middleware accounts its own decision internally).
        """
        for index, middleware in enumerate(self.middlewares):
            outcome = middleware.on_op(ctx, op)
            if isinstance(outcome, (Rejected, Served)):
                for prior in reversed(self.middlewares[:index]):
                    prior.on_reply(ctx, op, outcome)
                return outcome
            op = outcome
        return op

    def complete(self, ctx: OpContext, op: Op, result: Any) -> None:
        """Run ``on_reply`` back up the chain (innermost first)."""
        for middleware in reversed(self.middlewares):
            middleware.on_reply(ctx, op, result)

    def close_session(self, ctx: OpContext) -> None:
        for middleware in reversed(self.middlewares):
            middleware.on_session_close(ctx)

    def find(self, name: str) -> Optional[Middleware]:
        for middleware in self.middlewares:
            if middleware.name == name:
                return middleware
        return None


def _require_positive(name: str, options: Dict[str, Any], key: str, kind=(int, float)):
    value = options[key]
    if not isinstance(value, kind) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(
            f"middleware {name!r}: option {key!r} must be a positive number, "
            f"got {value!r}"
        )


# ----------------------------------------------------------------------
# Production middlewares
# ----------------------------------------------------------------------
class AdmissionControl(Middleware):
    """Bounded per-shard queue depth with deterministic load shedding.

    Ordered operations (writes, strong reads) count against a shard-wide
    depth — queued plus in flight, across every session sharing this
    instance.  An op arriving at a full shard resolves immediately with
    ``Rejected(OVERLOAD)`` instead of joining an unbounded backlog: under
    a flash crowd the admitted ops keep a bounded queueing delay (depth ×
    service time) while the overflow is shed and accounted.  Weak reads
    bypass the gate (they never queue).
    """

    name = "admission"

    def __init__(self, depth: int = 32):
        self.depth = depth
        self._inflight: Dict[str, int] = {}
        self.shed: Dict[str, int] = {}

    @classmethod
    def validate_options(cls, options: Dict[str, Any]) -> None:
        unknown = set(options) - {"depth"}
        if unknown:
            raise ConfigurationError(
                f"middleware {cls.name!r}: unknown options {sorted(unknown)}"
            )
        if "depth" in options:
            _require_positive(cls.name, options, "depth", kind=int)

    def on_op(self, ctx: OpContext, op: Op):
        if not op.ordered:
            return op
        shard = op.shard_id
        if self._inflight.get(shard, 0) >= self.depth:
            self.shed[shard] = self.shed.get(shard, 0) + 1
            return Rejected(OVERLOAD, by=self.name)
        self._inflight[shard] = self._inflight.get(shard, 0) + 1
        op.scratch["admission"] = shard
        return op

    def on_reply(self, ctx: OpContext, op: Op, result: Any) -> None:
        shard = op.scratch.pop("admission", None)
        if shard is not None:
            self._inflight[shard] -= 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "depth_limit": self.depth,
            "inflight": dict(self._inflight),
            "shed": dict(self.shed),
        }


class RateLimit(Middleware):
    """Token-bucket per-session rate limiting on simulated time.

    Every operation (weak reads included) spends one token; the bucket
    refills at ``rate`` tokens per simulated second up to ``burst``.  An
    empty bucket sheds with ``Rejected(RATE_LIMIT)`` — callers are
    expected to back off, and the deterministic refill makes the shed
    pattern reproducible run-to-run.
    """

    name = "rate-limit"

    def __init__(self, rate: float = 100.0, burst: Optional[float] = None):
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else self.rate
        #: session name -> [tokens, last refill time]
        self._buckets: Dict[str, List[float]] = {}
        self.shed_count = 0

    @classmethod
    def validate_options(cls, options: Dict[str, Any]) -> None:
        unknown = set(options) - {"rate", "burst"}
        if unknown:
            raise ConfigurationError(
                f"middleware {cls.name!r}: unknown options {sorted(unknown)}"
            )
        for key in ("rate", "burst"):
            if key in options:
                _require_positive(cls.name, options, key)

    def on_op(self, ctx: OpContext, op: Op):
        bucket = self._buckets.get(ctx.session_name)
        if bucket is None:
            bucket = self._buckets[ctx.session_name] = [self.burst, ctx.now]
        tokens, last = bucket
        tokens = min(self.burst, tokens + self.rate * (ctx.now - last) / 1000.0)
        if tokens < 1.0:
            bucket[0], bucket[1] = tokens, ctx.now
            self.shed_count += 1
            return Rejected(RATE_LIMIT, by=self.name)
        bucket[0], bucket[1] = tokens - 1.0, ctx.now
        return op

    def on_session_close(self, ctx: OpContext) -> None:
        self._buckets.pop(ctx.session_name, None)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "sessions": len(self._buckets),
            "shed": self.shed_count,
        }


class ReadCache(Middleware):
    """Client-side read caching with invalidation-on-write leases.

    A completed weak read installs a lease of ``lease_ms`` simulated
    milliseconds; while it holds, further weak reads of the key are
    served locally (``Served``) without touching the wire.  The session's
    own writes invalidate the key *write-through*: the lease is dropped
    both when the write is submitted and when it completes (closing the
    race with a weak read that was already in flight).  Writes by *other*
    sessions are not observed — the lease only bounds the staleness the
    session added on top of weak-read semantics, which are stale-prone by
    contract (paper Section 3.3).  Strong-read results also install a
    lease (they are at least as fresh as any weak read).
    """

    name = "read-cache"

    def __init__(self, lease_ms: float = 500.0):
        self.lease_ms = float(lease_ms)
        #: session name -> key -> (reply, lease expiry)
        self._caches: Dict[str, Dict[Any, Tuple[Any, float]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @classmethod
    def validate_options(cls, options: Dict[str, Any]) -> None:
        unknown = set(options) - {"lease_ms"}
        if unknown:
            raise ConfigurationError(
                f"middleware {cls.name!r}: unknown options {sorted(unknown)}"
            )
        if "lease_ms" in options:
            _require_positive(cls.name, options, "lease_ms")

    def _cache(self, ctx: OpContext) -> Dict[Any, Tuple[Any, float]]:
        return self._caches.setdefault(ctx.session_name, {})

    def on_op(self, ctx: OpContext, op: Op):
        if op.kind == "weak-read":
            entry = self._caches.get(ctx.session_name, {}).get(op.key)
            if entry is not None and entry[1] >= ctx.now:
                self.hits += 1
                return Served(entry[0], by=self.name)
            self.misses += 1
        elif op.kind == "write":
            if self._caches.get(ctx.session_name, {}).pop(op.key, None) is not None:
                self.invalidations += 1
        return op

    def on_reply(self, ctx: OpContext, op: Op, result: Any) -> None:
        if isinstance(result, (Rejected, Served)) or ctx.closed:
            return
        if op.kind == "write":
            # Write-through: sweep a lease a concurrent read installed.
            if self._caches.get(ctx.session_name, {}).pop(op.key, None) is not None:
                self.invalidations += 1
        else:
            self._cache(ctx)[op.key] = (result, ctx.now + self.lease_ms)

    def on_session_close(self, ctx: OpContext) -> None:
        self._caches.pop(ctx.session_name, None)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "lease_ms": self.lease_ms,
            "sessions": len(self._caches),
            "entries": sum(len(c) for c in self._caches.values()),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


class SloMetrics(Middleware):
    """SLO metrics emitter: latency histograms, depth gauge, shed/hit counts.

    Declare it *first* so it wraps the whole chain and observes inner
    sheds and cache hits.  Per-kind latency is recorded both as raw
    samples (exact percentiles for benchmarks) and as a power-of-two
    histogram (the production-shaped export).  The accounting identity
    ``offered == completed + served + shed`` holds exactly — ops shed at
    admission, by rate limiting, or by ``Session.close`` all surface
    here as ``Rejected`` results.
    """

    name = "slo-metrics"

    def __init__(self):
        self.offered: Dict[str, int] = {}
        self.completed: Dict[str, int] = {}
        self.served: Dict[str, int] = {}
        self.shed: Dict[str, int] = {}  # keyed by rejection reason
        self.latencies: Dict[str, List[float]] = {}
        self.histogram: Dict[str, Dict[int, int]] = {}
        self._inflight: Dict[str, int] = {}
        self.max_inflight: Dict[str, int] = {}

    def on_op(self, ctx: OpContext, op: Op):
        self.offered[op.kind] = self.offered.get(op.kind, 0) + 1
        op.scratch["slo"] = ctx.now
        shard = op.shard_id
        depth = self._inflight.get(shard, 0) + 1
        self._inflight[shard] = depth
        if depth > self.max_inflight.get(shard, 0):
            self.max_inflight[shard] = depth
        return op

    def on_reply(self, ctx: OpContext, op: Op, result: Any) -> None:
        started = op.scratch.pop("slo", None)
        if started is None:
            return  # duplicate completion; never happens on the session path
        self._inflight[op.shard_id] -= 1
        if isinstance(result, Rejected):
            self.shed[result.reason] = self.shed.get(result.reason, 0) + 1
            return
        if isinstance(result, Served):
            self.served[op.kind] = self.served.get(op.kind, 0) + 1
            return
        self.completed[op.kind] = self.completed.get(op.kind, 0) + 1
        latency = ctx.now - started
        self.latencies.setdefault(op.kind, []).append(latency)
        bucket = max(0, int(latency).bit_length())
        per_kind = self.histogram.setdefault(op.kind, {})
        per_kind[bucket] = per_kind.get(bucket, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "offered": dict(self.offered),
            "completed": dict(self.completed),
            "served": dict(self.served),
            "shed": dict(self.shed),
            "max_inflight": dict(self.max_inflight),
            "histogram_ms_pow2": {k: dict(v) for k, v in self.histogram.items()},
            "p50_ms": {k: percentile(v, 50) for k, v in self.latencies.items()},
            "p99_ms": {k: percentile(v, 99) for k, v in self.latencies.items()},
        }


# ----------------------------------------------------------------------
# Registry (spec entries name middlewares)
# ----------------------------------------------------------------------
#: spec name -> middleware class
_REGISTRY: Dict[str, type] = {
    "admission": AdmissionControl,
    "rate-limit": RateLimit,
    "read-cache": ReadCache,
    "slo-metrics": SloMetrics,
}


def resolve_middleware(name: str) -> type:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown middleware {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def validate_middleware(name: str, options: Dict[str, Any]) -> None:
    """Spec-validation entry point: name known, options well-formed."""
    resolve_middleware(name).validate_options(dict(options))


def build_middleware(name: str, options: Dict[str, Any]) -> Middleware:
    return resolve_middleware(name)(**dict(options))
