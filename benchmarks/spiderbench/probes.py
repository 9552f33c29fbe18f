"""Unit-cost probes: direct timing of each layer's public functions.

Each probe runs a fixed number of iterations (sized to ~0.1 s per loop
on the reference box), is repeated :data:`LOOPS` times, and reports the
fastest loop in host nanoseconds per call — the ``for`` loop's own
overhead (~20 ns) is included.  The probes run outside any simulation,
so the crypto calls charge no simulated CPU (``charge`` is a no-op
without a current node).

The message every crypto probe handles is the paper's 200-byte write
request, ``RequestBody(("put", key, 160 x "x"), client, counter)`` — the
object clients sign and replicas verify and MAC on every write.
"""

# lint: allow-file[D102] -- the probes *measure* host time per call
from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Callable, Dict

from repro.app import KVStore
from repro.core.messages import RequestBody
from repro.crypto import digest, make_mac_vector, sign, verify, verify_mac_vector
from repro.deploy.middleware import MiddlewareChain, Op, OpContext, build_middleware
from repro.elastic.rangemap import RangeMap
from repro.net import Network, Payload, Site, Topology
from repro.sim import Simulator
from repro.sim.routing import RoutedNode

from spiderbench.workloads import FLASH_MIDDLEWARE

LOOPS = 5


def _request(counter: int = 7) -> RequestBody:
    return RequestBody(("put", "key-3", "x" * 160), "cl-tokyo-0", counter)


def _noop() -> None:
    pass


def _timed_ns(loop: Callable[[], None], calls: int) -> float:
    started = time.perf_counter_ns()
    loop()
    return (time.perf_counter_ns() - started) / calls


def sim_post_run_ns(n: int = 100_000) -> float:
    """``Simulator.post`` of a no-op event plus its share of ``run``."""

    def loop():
        sim = Simulator(seed=0)
        for index in range(n):
            sim.post(index * 0.001, _noop)
        sim.run()

    return _timed_ns(loop, n)


def sim_schedule_cancel_ns(n: int = 100_000) -> float:
    """``Simulator.schedule`` of a timer plus ``EventHandle.cancel`` —
    the set/reset pattern of protocol timeouts (heap compaction included)."""

    def loop():
        sim = Simulator(seed=0)
        for _ in range(n):
            sim.schedule(1_000.0, _noop).cancel()

    return _timed_ns(loop, n)


def net_send_ns(n: int = 50_000) -> float:
    """``Network.send`` of a 256-byte payload Virginia -> Oregon with 5 %
    jitter: sizing, link lookup, accounting, NIC delay, one heap push."""
    sim = Simulator(seed=0)
    network = Network(sim, Topology(), jitter=0.05)
    src = network.register(RoutedNode(sim, "a", Site("virginia", 1)))
    dst = network.register(RoutedNode(sim, "b", Site("oregon", 1)))
    message = Payload(256, label="probe")

    def loop():
        send = network.send
        for _ in range(n):
            send(src, dst, message)

    return _timed_ns(loop, n)


def crypto_sign_ns(n: int = 100_000) -> float:
    """``sign`` of the write request (content digest memoised after the
    first call, as for every re-signed or re-verified protocol message)."""
    request = _request()

    def loop():
        for _ in range(n):
            sign("cl-tokyo-0", request)

    return _timed_ns(loop, n)


def crypto_verify_ns(n: int = 100_000) -> float:
    """``verify`` of the write request's signature with a pinned signer."""
    request = _request()
    signature = sign("cl-tokyo-0", request)

    def loop():
        for _ in range(n):
            verify(signature, request, signer="cl-tokyo-0")

    return _timed_ns(loop, n)


_GROUP = ("tokyo-e0", "tokyo-e1", "tokyo-e2")


def crypto_mac_vector_make_ns(n: int = 100_000) -> float:
    """``make_mac_vector`` from the client to its 3-replica execution group."""
    request = _request()

    def loop():
        for _ in range(n):
            make_mac_vector("cl-tokyo-0", _GROUP, request)

    return _timed_ns(loop, n)


def crypto_mac_vector_verify_ns(n: int = 100_000) -> float:
    """``verify_mac_vector`` of one replica's entry in that vector."""
    request = _request()
    vector = make_mac_vector("cl-tokyo-0", _GROUP, request)

    def loop():
        for _ in range(n):
            verify_mac_vector(vector, request, "cl-tokyo-0", "tokyo-e1")

    return _timed_ns(loop, n)


def crypto_digest_miss_ns(n: int = 20_000) -> float:
    """``digest`` of a write request never digested before (repr + 2 CRCs
    + memo store); the ``n`` requests are built outside the timed loop."""
    requests = [_request(counter) for counter in range(n)]

    def loop():
        for request in requests:
            digest(request)

    return _timed_ns(loop, n)


def crypto_digest_hit_ns(n: int = 200_000) -> float:
    """``digest`` of a request whose memo is warm (guard check only)."""
    request = _request()
    digest(request)

    def loop():
        for _ in range(n):
            digest(request)

    return _timed_ns(loop, n)


def deploy_chain_ns_per_op(n: int = 20_000) -> float:
    """``MiddlewareChain.admit`` + ``complete`` through the full armed
    chain (slo-metrics, admission, rate-limit, read-cache): per key one
    write then two weak reads, over 32 keys from one session at 100 ops/s
    of simulated time, so nothing is shed, the first read misses and the
    second hits the cache (a hit ends in ``admit``; the rest complete)."""
    clock = SimpleNamespace(now=0.0)
    session = SimpleNamespace(
        name="probe", closed=False, cluster=SimpleNamespace(sim=clock)
    )
    chain = MiddlewareChain(
        [build_middleware(entry["name"], entry.get("options", {})) for entry in FLASH_MIDDLEWARE]
    )
    ctx = OpContext(session, "s0")
    keys = [f"key-{index}" for index in range(32)]

    def loop():
        for index in range(n):
            clock.now += 10.0
            key = keys[(index // 3) % 32]
            if index % 3:
                op = Op("weak-read", key, ("get", key), "s0", clock.now)
            else:
                op = Op("write", key, ("put", key, index), "s0", clock.now)
            admitted = chain.admit(ctx, op)
            if admitted is op:
                chain.complete(ctx, op, ("ok", index))

    return _timed_ns(loop, n)


def elastic_owner_ns(n: int = 200_000) -> float:
    """``RangeMap.owner`` on the 2-shard epoch-0 table, cycling 64 keys."""
    range_map = RangeMap.modulo(("s0", "s1"))
    keys = [f"key-{index}" for index in range(64)]

    def loop():
        owner = range_map.owner
        for index in range(n):
            owner(keys[index & 63])

    return _timed_ns(loop, n)


def app_apply_ns(n: int = 200_000) -> float:
    """``KVStore.apply`` of a 160-byte ``put`` cycling 64 keys."""
    store = KVStore()
    operations = [("put", f"key-{index}", "x" * 160) for index in range(64)]

    def loop():
        apply = store.apply
        for index in range(n):
            apply(operations[index & 63])

    return _timed_ns(loop, n)


PROBES: Dict[str, Callable[[], float]] = {
    "sim.post_run_ns": sim_post_run_ns,
    "sim.schedule_cancel_ns": sim_schedule_cancel_ns,
    "net.send_ns": net_send_ns,
    "crypto.sign_ns": crypto_sign_ns,
    "crypto.verify_ns": crypto_verify_ns,
    "crypto.mac_vector_make_ns": crypto_mac_vector_make_ns,
    "crypto.mac_vector_verify_ns": crypto_mac_vector_verify_ns,
    "crypto.digest_miss_ns": crypto_digest_miss_ns,
    "crypto.digest_hit_ns": crypto_digest_hit_ns,
    "deploy.chain_ns_per_op": deploy_chain_ns_per_op,
    "elastic.owner_ns": elastic_owner_ns,
    "app.apply_ns": app_apply_ns,
}


def run_probes() -> Dict[str, float]:
    """Fastest of :data:`LOOPS` loops per probe, ns per call."""
    return {
        name: min(probe() for _ in range(LOOPS)) for name, probe in PROBES.items()
    }
