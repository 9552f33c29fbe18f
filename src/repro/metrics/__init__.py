"""Measurement utilities for experiments: latency percentiles, time series,
throughput, CPU and transfer accounting."""

from repro.metrics.latency import LatencySummary, percentile, summarize, time_series
from repro.metrics.oracle import sim_equivalent, sim_fingerprint
from repro.metrics.trace import MessageTrace, TraceEvent

__all__ = [
    "percentile",
    "summarize",
    "LatencySummary",
    "time_series",
    "sim_equivalent",
    "sim_fingerprint",
    "MessageTrace",
    "TraceEvent",
]
