"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict

import pytest

from repro.crypto.costs import CostModel, set_cost_model
from repro.net import Network, Site, Topology
from repro.sim import Simulator
from repro.sim.routing import RoutedNode


@pytest.fixture(autouse=True)
def _fast_crypto():
    """Logic tests run with tiny (but non-zero) crypto costs by default."""
    previous = set_cost_model(CostModel().scaled(0.01))
    yield
    set_cost_model(previous)


class Cluster:
    """A simulator + network + a handful of routed nodes, for protocol tests."""

    def __init__(self, seed: int = 1, jitter: float = 0.0):
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, Topology(), jitter=jitter)
        self.nodes = []

    def add_node(self, name: str, region: str = "virginia", zone: int = 1) -> RoutedNode:
        node = RoutedNode(self.sim, name, Site(region, zone))
        self.network.register(node)
        self.nodes.append(node)
        return node

    def add_group(self, prefix: str, count: int, region: str = "virginia"):
        """``count`` nodes spread over availability zones of one region."""
        return [
            self.add_node(f"{prefix}{index}", region, zone=index + 1)
            for index in range(count)
        ]

    def run(self, until: float = None, max_events: int = 2_000_000):
        self.sim.run(until=until, max_events=max_events)


@pytest.fixture
def cluster():
    return Cluster()


def irmc_book_sizes(shards) -> Dict[str, int]:
    """Largest ``book_sizes()`` entry (and tombstone ring) per
    ``"<endpoint>.<book>"`` over the four endpoints of every channel.

    Derived from the endpoint classes' ``BOOKS`` declarations, so a book
    added later is sampled without being listed anywhere in the tests.
    """
    sizes: Dict[str, int] = {}

    def sample(role, endpoint):
        for book, size in dict(endpoint.book_sizes(), _retired=len(endpoint._retired)).items():
            key = f"{role}.{book}"
            sizes[key] = max(sizes.get(key, 0), size)

    for shard in shards:
        for replica in shard.agreement_replicas:
            for channels in replica.groups.values():
                sample("request_rx", channels.request_rx)
                sample("commit_tx", channels.commit_tx)
        for group in shard.groups.values():
            for replica in group.replicas:
                sample("request_tx", replica.request_tx)
                sample("commit_rx", replica.commit_rx)
    return sizes
