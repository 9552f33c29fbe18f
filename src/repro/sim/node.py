"""Simulated machines with a serial CPU.

A :class:`Node` models one virtual machine (the paper used t3.small
instances).  All work on a node — message handlers, process resumptions,
timer callbacks — executes serially.  Work items *charge* CPU time (crypto
operations, request execution) through :func:`charge`; the charged time

* delays every message the work item sends (outgoing messages leave the node
  only once its CPU finished the work that produced them), and
* delays all subsequently queued work,

which is what produces CPU-bound saturation in the IRMC throughput
experiments (paper Fig. 9b/9c) and queueing delay under load.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # runtime import would be circular: net imports sim
    from repro.faults.behaviours import Behaviour
    from repro.net.network import Network
    from repro.net.topology import Site
    from repro.sim.core import Simulator
    from repro.sim.events import EventHandle

_current: Optional["Node"] = None

#: a seal hook: the entries it registered -> ``(unsigned body, then)`` pairs
SealHook = Callable[[List[Any]], Iterable[Tuple[Any, Callable[[Any], None]]]]


def current_node() -> Optional["Node"]:
    """The node whose CPU is executing right now (``None`` outside nodes).

    Crypto primitives use this to charge their CPU cost to whichever node
    invoked them, without every call site having to thread a node handle.
    """
    return _current


def charge(cost_ms: float) -> None:
    """Charge ``cost_ms`` of CPU time to the currently executing node.

    A no-op outside node context, so library code (e.g. crypto helpers) can
    be exercised from plain unit tests without a simulator.
    """
    node = _current
    if node is not None and cost_ms > 0:
        node._pending_cost += cost_ms


class Timer:
    """A timer on ``node``'s CPU whose stale callbacks never run.

    ``start(delay, *args)`` runs ``fn(*args)`` as a CPU task ``delay`` ms
    later (default ``period_ms``); with ``period_ms`` set the timer re-arms
    after each run of the body.  A timer event that fired may still sit in
    the CPU queue behind other work: ``cancel()`` and a re-``start()`` void
    that callback too, so a reset can never be undone by the run it
    replaced.  ``armed`` is true from ``start()`` until the body runs or
    ``cancel()``.  A crash cancels nothing: a callback dropped with a
    crashed node's queue leaves the timer armed, and the owning
    component's recovery hook restarts it.
    """

    __slots__ = ("node", "fn", "period_ms", "_args", "_epoch", "_handle")

    def __init__(self, node: "Node", fn: Callable[..., Any], period_ms: Optional[float] = None):
        self.node = node
        self.fn = fn
        self.period_ms = period_ms
        self._args: tuple = ()
        self._epoch = 0
        #: the event of the current start; ``None`` once the body ran or
        #: the timer was cancelled
        self._handle: Optional["EventHandle"] = None

    @property
    def armed(self) -> bool:
        return self._handle is not None

    @property
    def deadline(self) -> Optional[float]:
        """When the armed callback is due (``None`` when not armed)."""
        return None if self._handle is None else self._handle.time

    def start(self, delay: Optional[float] = None, *args: Any) -> None:
        """(Re-)arm; whatever an earlier start left pending or queued is void."""
        if delay is None:
            delay = self.period_ms
        assert delay is not None, "a one-shot Timer starts with a delay"
        self.cancel()
        self._args = args
        self._handle = self.node._set_timeout(delay, self._fire, self._epoch)

    def cancel(self) -> None:
        """Disarm, voiding a callback that already fired but has not run.
        Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._epoch += 1

    def _fire(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # cancelled or restarted while queued on the CPU
        self._handle = None
        self.fn(*self._args)
        if self.period_ms is not None and epoch == self._epoch:
            self.start(None, *self._args)  # the body neither cancelled nor restarted


class Node:
    """A machine in a specific availability zone with a serial CPU.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Unique human-readable identifier (also used as the node's principal
        for signatures).
    site:
        A :class:`repro.net.topology.Site` giving region and availability
        zone; ``None`` is allowed for substrate-level unit tests.
    """

    def __init__(self, sim: "Simulator", name: str, site: Optional["Site"] = None):
        self.sim = sim
        self.name = name
        self.site = site
        self.network: Optional["Network"] = None  # assigned by Network.register
        self.crashed = False
        #: number of times :meth:`crash` was called; lets observers (e.g.
        #: fault behaviours holding delayed messages) detect that a crash
        #: happened even if the node has since recovered.
        self.crash_count = 0
        #: the installed fault behaviours, latest last: :meth:`send` enters
        #: the latest, each forwards to the one before, the earliest to
        #: :meth:`transmit` (``Behaviour.install`` / ``uninstall`` edit it).
        self.faults: List["Behaviour"] = []
        self.busy_until: float = 0.0
        self.busy_ms: float = 0.0
        #: NIC egress model: outgoing messages serialise through the NIC at
        #: this rate, one after another (t3.small-class burst bandwidth).
        #: ``None`` disables the model.
        self.egress_mbps: float = 500.0
        self.nic_busy_until: float = 0.0
        self._pending_cost: float = 0.0
        self._tasks: Deque[Tuple[Callable[..., Any], tuple]] = deque()
        self._dispatch_scheduled = False
        self._executing = False
        self._outbox: list = []
        #: what :meth:`seal_later` registered since the last seal: emit hook
        #: -> its entries, hooks in the order they first registered.
        self._unsealed: Dict[SealHook, List[Any]] = {}
        self._seal_queued = False
        # Bound per node: crypto imports this module, so the module cannot
        # import crypto, and an import statement inside ``_seal`` would cost
        # microseconds on every seal.
        from repro.crypto.primitives import attach_auth, sign_many

        self._attach_auth, self._sign_many = attach_auth, sign_many
        #: callbacks run (as CPU tasks) after :meth:`recover`; components
        #: hosting timer chains or driver processes register here so a
        #: crash/recover cycle restores their liveness obligations.
        self._recovery_hooks: List[Callable[[], None]] = []
        #: callbacks run synchronously at the *start* of a recovery that
        #: follows ``crash(wipe=True)``: the durable/volatile split.  A wipe
        #: hook clears the component state that lived on the lost disk, so
        #: the node boots empty and the ordinary recovery hooks then rebuild
        #: it through the protocol (checkpoint install + log-suffix replay).
        self._wipe_hooks: List[Callable[[], None]] = []
        #: whether the last crash destroyed durable state too.
        self.wiped = False
        #: number of wiped restarts this node went through.
        self.wipe_count = 0
        #: local clock model: a skewed node's timers fire at ``delay /
        #: clock_rate`` real (simulated) milliseconds — a fast clock
        #: (rate > 1) fires timeouts early, a slow one late.  Exactly 1.0
        #: (the default) takes an arithmetic-free fast path so healthy runs
        #: stay bit-identical to a build without the clock model.
        self.clock_rate: float = 1.0

    # ------------------------------------------------------------------
    # CPU scheduling
    # ------------------------------------------------------------------
    def run_task(self, fn: Callable[..., Any], *args: Any) -> None:
        """Queue ``fn(*args)`` for execution on this node's CPU."""
        if self.crashed:
            return
        self._tasks.append((fn, args))
        if not (self._dispatch_scheduled or self._executing):
            self._post_dispatch()

    def seal_later(self, emit: SealHook, entry: Any) -> None:
        """Register ``entry`` for this node's next seal.

        The node signs at most once per CPU task: at the end of the
        running task, or — when older work is already queued — in one
        flush task behind that work (the queue is FIFO, so no timer is
        involved).  The seal calls ``emit(entries)`` once per hook with
        everything the hook registered; the hook sends what needs no
        signature itself and returns ``(body, then)`` pairs.  All bodies
        of all hooks share one ``rsa_sign``; ``then`` gets the signed
        message.
        """
        self._unsealed.setdefault(emit, []).append(entry)
        # Otherwise the flush is queued already, or the running task
        # seals as it ends.
        if not self._seal_queued and (self._tasks or not self._executing):
            self._settle()

    def _settle(self) -> None:
        if self._tasks:
            self._seal_queued = True
            self.run_task(self._seal)
        else:
            self._seal()

    def _seal(self) -> None:
        attach_auth, sign_many = self._attach_auth, self._sign_many
        self._seal_queued = False
        while self._unsealed:  # a ``then`` may register again
            registered, self._unsealed = self._unsealed, {}
            jobs = [job for emit, entries in registered.items() for job in emit(entries)]
            if jobs:
                bodies, thens = zip(*jobs)
                for body, then, signature in zip(bodies, thens, sign_many(self.name, bodies)):
                    then(attach_auth(body, signature=signature))

    def _post_dispatch(self) -> None:
        # Inlined fire-and-forget schedule of ``_dispatch`` at the CPU-free
        # time: this path runs once per queued task, so it bypasses the
        # ``Simulator.post_at`` call overhead (start time is never in the
        # past by construction).
        self._dispatch_scheduled = True
        sim = self.sim
        now = sim.now
        busy_until = self.busy_until
        sim._seq += 1
        heappush(
            sim._queue,
            (busy_until if busy_until > now else now, sim._seq, self._dispatch, ()),
        )

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self.crashed or not self._tasks:
            return
        fn, args = self._tasks.popleft()
        self._run_on_cpu(fn, args)

    def _run_on_cpu(self, fn: Callable[..., Any], args: tuple) -> None:
        """Run one work item on the (free) CPU, starting now."""
        global _current
        start = self.sim.now
        previous = _current
        _current = self
        self._executing = True
        self._pending_cost = 0.0
        try:
            fn(*args)
            if self._unsealed and not self._seal_queued:
                self._seal()
        finally:
            _current = previous
            self._executing = False
        cost = self._pending_cost
        self._pending_cost = 0.0
        busy_until = start + cost
        self.busy_until = busy_until
        self.busy_ms += cost
        if self._outbox:
            self._flush_outbox(busy_until)
        if self._tasks:
            self._post_dispatch()

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: "Node", message: Any) -> None:
        """Send ``message`` to ``dst``: through the latest installed fault
        behaviour, if any, else straight to :meth:`transmit`."""
        faults = self.faults
        if faults:
            faults[-1]._apply(dst, message)
        else:
            self.transmit(dst, message)

    def transmit(self, dst: "Node", message: Any) -> None:
        """Transmit ``message`` to ``dst`` over the network.

        When called from within a CPU task, the transmission is deferred
        until the task's charged CPU time has elapsed.
        """
        if self.crashed:
            return
        if self.network is None:
            raise SimulationError(f"node {self.name} is not attached to a network")
        if self._executing:
            self._outbox.append((dst, message))
        else:
            self.network.send(self, dst, message)

    def send_all(self, destinations: Iterable["Node"], message: Any) -> None:
        """Send one copy of ``message`` to each node in ``destinations``."""
        for dst in destinations:
            if dst is not self:
                self.send(dst, message)

    def _flush_outbox(self, at_time: float) -> None:
        network = self.network
        if not self._outbox or network is None:
            return
        pending, self._outbox = self._outbox, []
        if at_time <= self.sim.now:
            for dst, message in pending:
                network.send(self, dst, message)
        else:
            self.sim.post_at(at_time, self._transmit_batch, pending, self.crash_count)

    def _transmit_batch(self, pending: List[Tuple["Node", Any]], crash_count: int) -> None:
        network = self.network
        if self.crash_count != crash_count or network is None:
            return  # crashed since, even if rebooted: the old NIC queue is gone
        for dst, message in pending:
            network.send(self, dst, message)

    def deliver(self, src: "Node", message: Any) -> None:
        """Entry point used by the network; dispatches to ``on_message``.

        An arrival at a free CPU (nothing queued or executing, no charged
        work outstanding) runs its handler inside the delivery event —
        unless another event is due at this very instant: the ``_dispatch``
        entry the queued path pushes would sort behind that event, so only
        queueing keeps the order.  Without such a tie the dispatch would
        have been popped next anyway; inlining it saves the heap round
        trip and changes nothing else.
        """
        if self.crashed:
            return
        sim = self.sim
        now = sim.now
        queue = sim._queue
        if (
            self._dispatch_scheduled  # queued work (or a stale post-crash entry)
            or self._executing
            or self.busy_until > now
            or (queue and queue[0][0] <= now)
        ):
            self.run_task(self.on_message, src, message)
        else:
            self._run_on_cpu(self.on_message, (src, message))

    def on_message(self, src: "Node", message: Any) -> None:
        """Override in subclasses: handle one received message."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Run ``fn(*args)`` on this CPU after ``delay`` ms: a started
        one-shot :class:`Timer`."""
        timer = Timer(self, fn)
        timer.start(delay, *args)
        return timer

    def _set_timeout(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> "EventHandle":
        """Run ``fn(*args)`` on this CPU after ``delay`` ms; only
        :class:`Timer` calls this.

        The delay is measured on the node's *local* clock: under clock skew
        (``clock_rate != 1.0``) a requested ``delay`` elapses in ``delay /
        clock_rate`` simulated milliseconds, so a fast clock misfires
        timeouts early and a slow one late.  Skew applies at arm time only —
        already-scheduled timers keep their original deadline, as a real
        drifting clock would for an absolute hardware timer.
        """
        rate = self.clock_rate
        if rate != 1.0 and rate > 0.0:
            delay = delay / rate
        return self.sim.schedule(delay, self.run_task, fn, *args)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash(self, wipe: bool = False) -> None:
        """Fail-stop the node: pending work and future messages are dropped.

        ``wipe=True`` additionally marks the crash as a *disk loss*: on the
        next :meth:`recover` the registered wipe hooks run first, clearing
        every component's durable state, so the node reboots empty and must
        rebuild through the protocol (full checkpoint install plus
        log-suffix replay) rather than resuming from preserved state.
        """
        self.crashed = True
        self.crash_count += 1
        if wipe:
            self.wiped = True
        self._tasks.clear()
        self._outbox.clear()
        self._seal_queued = False  # the flush went with the queue; what it was to sign did not

    def recover(self) -> None:
        """Clear the crash flag and run the registered recovery hooks.

        State is whatever the subclass preserved; what a crash *does*
        destroy is the node's scheduled work — queued tasks, in-flight
        process resumptions, fired-but-undispatched timer callbacks.
        Recovery hooks are each component's chance to re-arm those (respawn
        driver processes, restart timer chains, request state transfer);
        they run as ordinary CPU tasks in registration order.  Idempotent:
        recovering a node that is not crashed does nothing.

        After a ``crash(wipe=True)`` the wipe hooks run *synchronously
        first* — the process boots with an empty disk before any recovery
        task gets CPU time — so recovery hooks always observe the
        post-wipe state.
        """
        if not self.crashed:
            return
        self.crashed = False
        if self.wiped:
            self.wiped = False
            self.wipe_count += 1
            self._unsealed.clear()
            for hook in list(self._wipe_hooks):
                hook()
        for hook in list(self._recovery_hooks):
            self.run_task(hook)
        if self._unsealed:
            self._settle()

    def add_recovery_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook`` to run on this node's CPU after each recovery."""
        self._recovery_hooks.append(hook)

    def remove_recovery_hook(self, hook: Callable[[], None]) -> None:
        """Deregister a recovery hook (e.g. when a component closes)."""
        if hook in self._recovery_hooks:
            self._recovery_hooks.remove(hook)

    def add_wipe_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook`` to clear a component's durable state on a
        wiped restart (runs synchronously, before the recovery hooks)."""
        self._wipe_hooks.append(hook)

    def remove_wipe_hook(self, hook: Callable[[], None]) -> None:
        """Deregister a wipe hook (e.g. when a component closes)."""
        if hook in self._wipe_hooks:
            self._wipe_hooks.remove(hook)

    def nic_delay(self, size_bytes: int) -> float:
        """Queueing + serialization delay of sending ``size_bytes`` now.

        Advances the NIC busy horizon, so back-to-back large messages queue
        behind each other — this is what caps IRMC throughput for big
        payloads (paper Fig. 9b).
        """
        if not self.egress_mbps:
            return 0.0
        now = self.sim.now
        nic_busy = self.nic_busy_until
        departure = (nic_busy if nic_busy > now else now) + (size_bytes * 8.0) / (
            self.egress_mbps * 1000.0
        )
        self.nic_busy_until = departure
        return departure - now

    def cpu_utilisation(self, window_start: float, busy_at_start: float) -> float:
        """Fraction of [window_start, now] this node's CPU spent busy."""
        elapsed = self.sim.now - window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.busy_ms - busy_at_start) / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} site={self.site}>"
