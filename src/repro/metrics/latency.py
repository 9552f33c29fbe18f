"""Latency statistics over client-recorded samples.

Clients record ``(kind, start_ms, latency_ms)`` tuples (see
:class:`repro.core.client.SpiderClient`); these helpers aggregate them into
the percentiles and time series the paper's figures report.  Means use
``math.fsum``, which is correctly rounded on every CPython, so the
committed records read the same on every supported version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Sample = Tuple[str, float, float]  # (kind, start_ms, latency_ms)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (linear interpolation), 0 for empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    # a + (b - a) * t never leaves [a, b] for t in [0, 1], unlike the
    # two-product form which can overshoot by one ulp.
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass
class LatencySummary:
    """Aggregate statistics for one set of samples."""

    count: int
    p50: float
    p90: float
    p99: float
    mean: float

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"n={self.count} p50={self.p50:.1f}ms p90={self.p90:.1f}ms "
            f"p99={self.p99:.1f}ms mean={self.mean:.1f}ms"
        )


def summarize(
    samples: Iterable[Sample],
    kind: Optional[str] = None,
    kinds: Optional[Sequence[str]] = None,
    after_ms: float = 0.0,
    before_ms: Optional[float] = None,
) -> LatencySummary:
    """Aggregate samples, optionally filtered by kind and start-time window.

    ``after_ms`` discards warm-up samples; ``before_ms`` truncates cool-down.
    """
    accepted_kinds = set(kinds) if kinds is not None else None
    if kind is not None:
        accepted_kinds = (accepted_kinds or set()) | {kind}
    latencies: List[float] = []
    for sample_kind, start, latency in samples:
        if accepted_kinds is not None and sample_kind not in accepted_kinds:
            continue
        if start < after_ms:
            continue
        if before_ms is not None and start >= before_ms:
            continue
        latencies.append(latency)
    if not latencies:
        return LatencySummary(count=0, p50=0.0, p90=0.0, p99=0.0, mean=0.0)
    return LatencySummary(
        count=len(latencies),
        p50=percentile(latencies, 50),
        p90=percentile(latencies, 90),
        p99=percentile(latencies, 99),
        mean=math.fsum(latencies) / len(latencies),
    )


def time_series(
    samples: Iterable[Sample],
    bucket_ms: float,
    kind: Optional[str] = None,
    kinds: Optional[Sequence[str]] = None,
) -> Dict[float, float]:
    """Average latency per completion-time bucket (paper Fig. 10 style).

    Returns an ordered mapping ``bucket_start_ms -> mean latency``.
    """
    accepted_kinds = set(kinds) if kinds is not None else None
    if kind is not None:
        accepted_kinds = (accepted_kinds or set()) | {kind}
    buckets: Dict[float, List[float]] = {}
    for sample_kind, start, latency in samples:
        if accepted_kinds is not None and sample_kind not in accepted_kinds:
            continue
        bucket = (start // bucket_ms) * bucket_ms
        buckets.setdefault(bucket, []).append(latency)
    return {
        bucket: math.fsum(values) / len(values)
        for bucket, values in sorted(buckets.items())
    }
