"""Generator-based coroutine processes.

A process wraps a Python generator.  The generator expresses the blocking
structure of the paper's pseudocode directly::

    def main_loop(self):
        while True:
            msg = yield self.commit_irmc.receive(0, self.sn + 1)
            ...

Yieldable values
----------------
* :class:`~repro.sim.futures.SimFuture` — suspend until resolved; the
  ``yield`` expression evaluates to the future's value.
* ``float``/``int`` or :func:`sleep(t) <sleep>` — suspend for ``t`` simulated
  milliseconds.

If the process is bound to a :class:`~repro.sim.node.Node`, every resumption
runs on that node's serial CPU, so a busy node delays its own main loops —
exactly like a busy replica thread would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.futures import SimFuture

if TYPE_CHECKING:
    from repro.sim.core import Simulator
    from repro.sim.node import Node


class Sleep:
    """Sentinel yielded by a process that wants to pause for ``delay`` ms."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay


def sleep(delay: float) -> Sleep:
    """Readable alias: ``yield sleep(10)`` pauses for ten milliseconds."""
    return Sleep(delay)


class Process:
    """Drives a generator over the simulator, one resumption per event.

    Parameters
    ----------
    sim:
        The owning simulator.
    generator:
        The coroutine body.
    node:
        Optional node whose CPU executes each resumption (and is charged for
        the crypto/application work the resumption performs).
    name:
        Debugging label.
    """

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        node: Optional["Node"] = None,
        name: str = "",
    ):
        self.sim = sim
        self.node = node
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self.finished = False
        self.result: Any = None
        self.completion = SimFuture(name=f"{self.name}.completion")
        # Kick off the first resumption as a fresh event so that spawning a
        # process never runs user code synchronously inside the caller.
        if node is not None:
            node.run_task(self._step, None)
        else:
            sim.post(0.0, self._step, None)

    def _step(self, value: Any) -> None:
        if self.finished:
            return
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.completion.resolve(stop.value)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, SimFuture):
            yielded.add_callback(self._resume)
        elif isinstance(yielded, Sleep):
            self.sim.post(yielded.delay, self._resume, None)
        elif isinstance(yielded, (int, float)):
            self.sim.post(float(yielded), self._resume, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def _resume(self, value: Any) -> None:
        # Route the continuation through the node CPU when bound to one, so
        # a saturated replica cannot make protocol progress for free.
        if self.node is not None:
            self.node.run_task(self._step, value)
        else:
            self.sim.post(0.0, self._step, value)

    def stop(self) -> None:
        """Terminate the process; it will never be resumed again."""
        self.finished = True
        self._generator.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"
