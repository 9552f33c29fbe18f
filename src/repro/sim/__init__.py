"""Deterministic discrete-event simulation substrate.

This package provides the runtime on which every protocol in the repository
executes:

* :class:`~repro.sim.core.Simulator` — the event loop (time in milliseconds).
* :class:`~repro.sim.futures.SimFuture` — resolvable one-shot values used to
  express the blocking calls of the paper's pseudocode.
* :class:`~repro.sim.process.Process` — generator-based coroutines; replica
  main loops ``yield`` futures or sleep durations.
* :class:`~repro.sim.node.Node` — a simulated machine with a serial CPU;
  crypto and execution charge CPU time that delays subsequent work, which is
  what makes throughput and CPU-usage experiments meaningful.
* :class:`~repro.sim.node.Timer` — the one way protocols arm timers on a
  node: a reset or cancel also voids a callback already queued on the CPU.
"""

from repro.sim.core import Simulator
from repro.sim.events import EventHandle
from repro.sim.futures import SimFuture, gather
from repro.sim.node import Node, Timer, charge, current_node
from repro.sim.process import Process, Sleep, sleep

__all__ = [
    "Simulator",
    "EventHandle",
    "SimFuture",
    "gather",
    "Node",
    "Timer",
    "charge",
    "current_node",
    "Process",
    "Sleep",
    "sleep",
]
