"""Instrumentation installed by the benchmark, from outside the program.

:class:`Instruments` wraps two public seams for the length of one
repetition and restores them afterwards:

* ``Simulator.run`` — timed with the host CPU and wall clocks in slices
  of :data:`SLICE_MS` simulated milliseconds (plus the phase boundaries
  the workload names), and in a traced repetition wrapped in ``cProfile``;
* ``repro.deploy.build`` — so the network and cluster a scenario stack
  builds internally can be read after the run, and the network gets a
  ``MessageTrace`` in a traced repetition.

Neither wrapper schedules an event or draws from an RNG, so a traced
repetition's simulated results equal an untraced one's (the runner
asserts it).
"""

# lint: allow-file[D102] -- this module *measures* host time; simulated
# results are pinned separately by sim_fingerprint
from __future__ import annotations

import cProfile
import gc
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.deploy
from repro.metrics import MessageTrace
from repro.sim import Simulator

#: ``Simulator.run`` is timed in slices of this much simulated time.  Two
#: repetitions of one input do identical work in a slice, so the cheapest
#: a slice ever ran is its undisturbed cost however noisy the box was
#: elsewhere (``report.slice_floor_s``).
SLICE_MS = 250.0
#: the packages of ``src/repro`` the ledger reports on.
LAYERS = (
    "sim", "net", "crypto", "consensus", "irmc", "checkpoints",
    "core", "deploy", "elastic", "app", "workload",
)
#: packages whose message types the owner accounting splits traffic by.
OWNERS = ("consensus", "irmc", "core", "checkpoints", "elastic")
#: load generation that lives outside ``repro.workload`` is still the
#: workload layer: the scenario stacks' arrival/probe closures (and, in
#: ``_layer_of``, this benchmark's own drivers).
_LAYER_ALIASES = {"scenarios": "workload"}
#: crypto entry points counted per op from the profile's call counts.
_CRYPTO_OPS = {
    "sign": "sign",
    "verify": "verify",
    "make_mac_vector": "mac_vector_make",
    "verify_mac_vector": "mac_vector_verify",
    "digest": "digest",
    "content_digest": "digest",
}


class Instruments:
    """One repetition's clocks, legs, profile and message accounting."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        #: phase boundaries in simulated ms, set by the workload before its
        #: first ``run``: the end of the issue phase, and the instant from
        #: which nothing is in flight any more (the idle tail of the drain).
        self.issue_end_ms = 0.0
        self.idle_from_ms = 0.0
        #: one entry per slice: (until_ms, cpu_s, wall_s, events).
        self.legs: List[Tuple[float, float, float, int]] = []
        self.sim: Optional[Simulator] = None
        self.network = None
        self.cluster = None
        self.first_run_cpu_s: Optional[float] = None
        self.first_run_wall_s: Optional[float] = None
        self.last_run_wall_s: Optional[float] = None
        self.profile = cProfile.Profile() if trace else None
        #: (message type name, wan) -> [messages, bytes], filled by the
        #: MessageTrace ``include`` hook (nothing is stored per event).
        self.traffic: Dict[Tuple[str, bool], List[int]] = defaultdict(lambda: [0, 0])
        self._message_trace: Optional[MessageTrace] = None
        self._saved: Optional[Tuple[Any, Any]] = None

    # -- seams ---------------------------------------------------------
    def __enter__(self) -> "Instruments":
        self._saved = (Simulator.run, repro.deploy.build)
        original_run, original_build = self._saved
        instruments = self

        def timed_run(sim, until=None, max_events=None):
            instruments._run_in_legs(original_run, sim, until, max_events)

        def watched_build(sim, spec, network=None):
            built = original_build(sim, spec, network=network)
            instruments.cluster = built
            instruments.watch(built.network)
            return built

        Simulator.run = timed_run
        repro.deploy.build = watched_build
        return self

    def __exit__(self, *exc) -> None:
        Simulator.run, repro.deploy.build = self._saved
        if self._message_trace is not None:
            self._message_trace.detach()

    def watch(self, network) -> None:
        """Remember ``network``; in a traced repetition attach the trace."""
        self.network = network
        if self.trace and self._message_trace is None:
            self._message_trace = MessageTrace(include=self._count_message)
            self._message_trace.attach(network)

    def _count_message(self, event) -> bool:
        entry = self.traffic[(event.message_type, event.wan)]
        entry[0] += 1
        entry[1] += event.size_bytes
        return False  # aggregate only; keep no per-event record

    def _run_in_legs(self, original_run, sim, until, max_events) -> None:
        if self.sim is None:
            self.sim = sim
            gc.collect()
            self.first_run_cpu_s = time.process_time()
            self.first_run_wall_s = time.perf_counter()
        stops = {self.issue_end_ms, self.idle_from_ms}
        if until is not None:
            stops.update(SLICE_MS * index for index in range(1, int(until // SLICE_MS) + 1))
        stops = sorted(stop for stop in stops if sim.now < stop and (until is None or stop < until))
        for stop in stops + [until]:
            events = sim.events_processed
            cpu, wall = time.process_time(), time.perf_counter()
            if self.profile is not None:
                self.profile.enable()
            try:
                original_run(sim, until=stop, max_events=max_events)
            finally:
                if self.profile is not None:
                    self.profile.disable()
            self.legs.append(
                (
                    sim.now,
                    time.process_time() - cpu,
                    time.perf_counter() - wall,
                    sim.events_processed - events,
                )
            )
        self.last_run_wall_s = time.perf_counter()

    # -- read-outs -----------------------------------------------------
    def between(self, start_ms: float, end_ms: float) -> Tuple[float, float, int]:
        """``(cpu_s, wall_s, events)`` of the slices ending in
        ``(start_ms, end_ms]`` of simulated time."""
        chosen = [leg for leg in self.legs if start_ms < leg[0] <= end_ms]
        return (
            sum(leg[1] for leg in chosen),
            sum(leg[2] for leg in chosen),
            sum(leg[3] for leg in chosen),
        )


# ----------------------------------------------------------------------
# Profile fold
# ----------------------------------------------------------------------
def _layer_of(code) -> Optional[str]:
    """The ledger layer owning a profiled code object (None: not ours)."""
    if isinstance(code, str):  # a built-in: charged to its caller
        return None
    filename = code.co_filename
    if "/spiderbench/" in filename:
        return "workload"
    index = filename.rfind("/repro/")
    if index < 0:
        return None
    package = filename[index + len("/repro/"):].split("/", 1)[0]
    package = _LAYER_ALIASES.get(package, package)
    return package if package in LAYERS else f"other:{package}"


def fold_profile(profile: cProfile.Profile, ops: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Fold ``cProfile`` entries by ``repro.<package>`` into named metrics.

    Returns ``(exact, host)``: per-op call counts (exact for a seed) and
    per-op self time.  A function's inline time goes to its package.
    Time inside built-ins and library functions is charged to the calling
    layer through the profiler's caller edges (``entry.calls``); library
    code called from library code has no layer to go to and is reported
    as unattributed.  Inline times only, so a built-in that calls back
    into the program (``generator.send``, ``sorted(key=...)``) is never
    counted twice.
    """
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    crypto_calls: Dict[str, int] = defaultdict(int)
    unattributed = 0.0
    for entry in profile.getstats():
        layer = _layer_of(entry.code)
        if layer is not None:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            if layer == "crypto" and entry.code.co_name in _CRYPTO_OPS:
                crypto_calls[_CRYPTO_OPS[entry.code.co_name]] += entry.callcount
        for edge in entry.calls or ():
            if _layer_of(edge.code) is None:
                if layer is not None:
                    self_s[layer] += edge.inlinetime
                else:
                    unattributed += edge.inlinetime
    total = sum(self_s.values()) + unattributed
    exact = {f"{layer}.calls_per_op": calls[layer] / ops for layer in LAYERS}
    for name in sorted(set(_CRYPTO_OPS.values())):
        exact[f"crypto.{name}_per_op"] = crypto_calls[name] / ops
    host = {f"{layer}.self_us_per_op": self_s[layer] / ops * 1e6 for layer in LAYERS}
    # MessageTrace's own recording (repro.metrics) and any other repro
    # package outside the eleven layers: the cost of tracing, not of a layer.
    host["trace.self_us_per_op"] = (
        sum(value for name, value in self_s.items() if name not in LAYERS) / ops * 1e6
    )
    host["trace.unattributed_share"] = unattributed / total
    host["trace.profiled_s"] = total
    return exact, host


# ----------------------------------------------------------------------
# Message ownership
# ----------------------------------------------------------------------
def message_owners() -> Dict[str, str]:
    """Message type name -> the ``repro`` package that defines it.

    ``MessageTrace`` records type *names*; the defining package is read
    off the classes the loaded ``repro`` modules define.  A name defined
    by two packages is owned by neither (reported as ``ambiguous``).
    """
    owners: Dict[str, str] = {}
    for module_name in sorted(sys.modules):
        if not module_name.startswith("repro."):
            continue
        module = sys.modules[module_name]
        package = module_name.split(".")[1]
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module_name:
                if owners.setdefault(name, package) != package:
                    owners[name] = "ambiguous"
    return owners


def fold_traffic(traffic, ops: int) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold ``Instruments.traffic`` by the package owning each message type.

    Returns the named per-op metrics for :data:`OWNERS` plus the message
    totals of every other owner (``net`` payloads, ``ambiguous`` names),
    so nothing the trace saw goes unreported.
    """
    owners = message_owners()
    messages: Dict[str, int] = defaultdict(int)
    wan_bytes: Dict[str, int] = defaultdict(int)
    for (type_name, wan), (count, size) in sorted(traffic.items()):
        owner = owners.get(type_name, "unknown")
        messages[owner] += count
        if wan:
            wan_bytes[owner] += size
    exact = {}
    for owner in OWNERS:
        exact[f"net.msgs_per_op.{owner}"] = messages[owner] / ops
        exact[f"net.wan_bytes_per_op.{owner}"] = wan_bytes[owner] / ops
    unowned = {owner: count for owner, count in messages.items() if owner not in OWNERS}
    return exact, unowned


# ----------------------------------------------------------------------
# Public counters
# ----------------------------------------------------------------------
def shard_counters(shards: Sequence[Any]) -> Dict[str, float]:
    """Totals of the public protocol counters over ``shards``.

    Read after the run from attributes every replica already keeps
    (``Node.busy_ms``, PBFT's ``delivered_count`` / ``view_changes_
    completed`` / ..., the IRMC endpoints' ``sent_count`` /
    ``delivered_count``, the checkpoint components' ``stable_count``).
    """
    totals: Dict[str, float] = defaultdict(float)
    for shard in shards:
        agreement = shard.agreement_replicas
        executors = [r for group in shard.groups.values() for r in group.replicas]
        totals["agreement_cpu_ms"] += sum(r.busy_ms for r in agreement)
        totals["execution_cpu_ms"] += sum(r.busy_ms for r in executors)
        totals["leader_cpu_ms"] = max(
            totals["leader_cpu_ms"], max(r.busy_ms for r in agreement)
        )
        # Every correct replica delivers the same instances; the maximum
        # is the group's count even when one replica crashed and caught up
        # by checkpoint instead of by delivery.
        totals["instances"] += max(r.delivered_count for r in agreement)
        totals["requests_ordered"] += max(r.requests_delivered for r in agreement)
        totals["view_changes"] += max(r.ag.view_changes_completed for r in agreement)
        totals["state_transfers"] += sum(r.ag.state_transfers_requested for r in agreement)
        totals["payload_fetches"] += sum(r.ag.payload_fetches_sent for r in agreement)
        totals["stable_checkpoints"] += sum(r.cp.stable_count for r in agreement + executors)
        for replica in executors:
            totals["irmc_sent"] += replica.request_tx.sent_count
            totals["irmc_delivered"] += replica.commit_rx.delivered_count
        for replica in agreement:
            for channels in replica.groups.values():
                totals["irmc_sent"] += channels.commit_tx.sent_count
                totals["irmc_delivered"] += channels.request_rx.delivered_count
    return dict(totals)
