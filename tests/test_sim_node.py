"""Tests for the serial-CPU node model and its interaction with the network."""

from repro.faults import DropBehaviour
from repro.net import Network, Site, Topology
from repro.sim import Node, Simulator, Timer, charge


class Recorder(Node):
    """Test node that records received messages and charges a fixed cost."""

    def __init__(self, sim, name, site, cost_ms=0.0):
        super().__init__(sim, name, site)
        self.cost_ms = cost_ms
        self.received = []

    def on_message(self, src, message):
        charge(self.cost_ms)
        self.received.append((self.sim.now, src.name, message))


def make_pair(cost_ms=0.0, jitter=0.0):
    sim = Simulator(seed=1)
    network = Network(sim, Topology(), jitter=jitter)
    a = network.register(Recorder(sim, "a", Site("virginia", 1), cost_ms))
    b = network.register(Recorder(sim, "b", Site("virginia", 2), cost_ms))
    return sim, network, a, b


class Ping:
    def __init__(self, tag):
        self.tag = tag

    def size_bytes(self):
        return 200

    def __repr__(self):
        return f"Ping({self.tag})"


class TestNodeCpu:
    def test_tasks_run_serially_with_cost(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        times = []

        def work(tag):
            charge(3.0)
            times.append((tag, sim.now))

        node.run_task(work, "first")
        node.run_task(work, "second")
        sim.run()
        # The second task starts only after the first's 3 ms of CPU.
        assert times == [("first", 0.0), ("second", 3.0)]
        assert node.busy_ms == 6.0

    def test_crashed_node_ignores_work(self):
        sim = Simulator()
        node = Recorder(sim, "n", Site("virginia"))
        node.crash()
        node.run_task(lambda: node.received.append("ran"))
        sim.run()
        assert node.received == []

    def test_timeout_fires_on_cpu(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        fired = []
        timer = node.after(4.0, lambda: fired.append(sim.now))
        assert timer.armed and timer.deadline == 4.0
        sim.run()
        assert fired == [4.0]
        assert not timer.armed and timer.deadline is None

    def test_cancelled_timeout_does_not_fire(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        fired = []
        timer = node.after(4.0, lambda: fired.append(sim.now))
        timer.cancel()
        sim.run()
        assert fired == []
        assert sim.events_processed == 0  # the event went, not just its body


def _fired_behind_a_hog(sim, node):
    """Arm a 10 ms one-shot on ``node`` and keep the CPU busy until 15 ms:
    returns the timer and the list its body appends to, with the simulator
    stopped where the callback has fired but still queues."""
    fired = []
    timer = node.after(10.0, fired.append, "body")
    node.run_task(charge, 15.0)
    sim.run(until=11.0)
    assert fired == [] and timer.armed  # fired at the simulator, queued on the CPU
    return timer, fired


class TestTimer:
    """The stale-callback guard is the timer's, not each caller's."""

    def test_cancel_voids_a_callback_that_fired_but_still_queues(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        timer, fired = _fired_behind_a_hog(sim, node)
        timer.cancel()
        sim.run()
        assert fired == [] and not timer.armed

    def test_start_voids_it_too(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        timer, fired = _fired_behind_a_hog(sim, node)
        timer.start(30.0, "restarted")
        sim.run(until=40.0)
        assert fired == [] and timer.deadline == 41.0
        sim.run()
        assert fired == ["restarted"]

    def test_periodic_timer_rearms_after_its_body(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        ticks = []

        def tick():
            charge(1.0)
            ticks.append(sim.now)

        timer = Timer(node, tick, period_ms=10.0)
        timer.start()
        sim.run(until=35.0)
        # Re-armed when the body ran, so the body's own CPU time does not
        # drift the period.
        assert ticks == [10.0, 20.0, 30.0]
        assert timer.armed and timer.deadline == 40.0
        timer.cancel()
        sim.run()
        assert ticks == [10.0, 20.0, 30.0] and sim.pending_events == 0

    def test_periodic_body_that_cancels_stops_the_chain(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                timer.cancel()

        timer = Timer(node, tick, period_ms=10.0)
        timer.start()
        sim.run()
        assert ticks == [10.0, 20.0] and not timer.armed

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        timer = node.after(5.0, lambda: None)
        timer.cancel()
        timer.cancel()
        Timer(node, lambda: None).cancel()  # never started
        assert not timer.armed and sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0

    def test_clock_skew_applies_at_arm_time(self):
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        node.clock_rate = 2.0  # a fast clock: 10 local ms are 5 real ones
        timer = node.after(10.0, lambda: None)
        node.clock_rate = 0.5  # drifting later keeps the armed deadline
        assert timer.deadline == 5.0
        timer.start(10.0)
        assert timer.deadline == 20.0

    def test_crash_cancels_nothing(self):
        """A callback dropped with a crashed CPU leaves the timer armed:
        restarting it is the owning component's recovery hook's job."""
        sim = Simulator()
        node = Node(sim, "n", Site("virginia"))
        fired = []
        timer = node.after(10.0, fired.append, "body")
        node.crash()
        sim.run(until=20.0)
        node.recover()
        sim.run()
        assert fired == [] and timer.armed
        assert sim.events_processed == 1  # the timer event still counts


class TestNetworkDelivery:
    def test_intra_region_delivery_latency(self):
        sim, network, a, b = make_pair()
        a.send(b, Ping(1))
        sim.run()
        assert len(b.received) == 1
        arrival = b.received[0][0]
        # One-way zone-to-zone is 0.6 ms plus a little serialization delay.
        assert 0.6 <= arrival < 0.8

    def test_wan_latency_dominates(self):
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), jitter=0.0)
        a = network.register(Recorder(sim, "a", Site("virginia", 1)))
        b = network.register(Recorder(sim, "b", Site("tokyo", 1)))
        a.send(b, Ping(1))
        sim.run()
        assert 80.0 <= b.received[0][0] < 81.0  # RTT 160 -> one-way 80

    def test_sends_during_task_leave_after_cpu_cost(self):
        sim, network, a, b = make_pair()

        def work():
            charge(10.0)
            a.send(b, Ping("after-cost"))

        a.run_task(work)
        sim.run()
        # message leaves at t=10 and takes ~0.6 ms
        assert b.received[0][0] >= 10.6

    def test_reboot_inside_the_cpu_window_loses_the_tasks_sends(self):
        """A rebooted machine does not replay an old NIC queue: the sends
        of a task still waiting out its CPU time die with a crash, even one
        the node recovers from before that time is up."""
        sim, network, a, b = make_pair()

        def work():
            charge(10.0)
            a.send(b, Ping("doomed"))

        a.run_task(work)
        sim.run(until=5.0)
        a.crash()
        sim.run(until=6.0)
        a.recover()
        sim.run()
        assert b.received == []

    def test_partition_blocks_and_heals(self):
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), jitter=0.0)
        a = network.register(Recorder(sim, "a", Site("virginia", 1)))
        b = network.register(Recorder(sim, "b", Site("tokyo", 1)))
        network.partition({"tokyo"})
        a.send(b, Ping(1))
        sim.run()
        assert b.received == [] and network.dropped == 1
        network.heal()
        a.send(b, Ping(2))
        sim.run()
        assert len(b.received) == 1

    def test_block_single_link_is_directional(self):
        sim, network, a, b = make_pair()
        network.block_link(a, b)
        a.send(b, Ping(1))
        b.send(a, Ping(2))
        sim.run()
        assert b.received == []
        assert len(a.received) == 1

    def test_byte_accounting_wan_vs_lan(self):
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), jitter=0.0)
        a = network.register(Recorder(sim, "a", Site("virginia", 1)))
        b = network.register(Recorder(sim, "b", Site("virginia", 2)))
        c = network.register(Recorder(sim, "c", Site("ireland", 1)))
        a.send(b, Ping(1))
        a.send(c, Ping(2))
        sim.run()
        assert network.lan.messages == 1 and network.wan.messages == 1
        assert network.lan.bytes == network.wan.bytes == 200

    def test_interval_mbps(self):
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), jitter=0.0)
        a = network.register(Recorder(sim, "a", Site("virginia", 1)))
        b = network.register(Recorder(sim, "b", Site("ireland", 1)))
        before = network.snapshot()
        for _ in range(10):
            a.send(b, Ping(0))
        sim.run(until=1000.0)
        after = network.snapshot()
        mbps = Network.interval_mbps(before, after, wan=True)
        assert abs(mbps - (10 * 200 / 1e6)) < 1e-9  # 2000 bytes over 1 s

    def test_drop_rate_loses_messages(self):
        sim, network, a, b = make_pair()
        dropper = DropBehaviour(0.5).install(a)
        for index in range(100):
            a.send(b, Ping(index))
        sim.run()
        assert 20 < len(b.received) < 80
        assert dropper.dropped == 100 - len(b.received)

    def test_a_tap_sees_a_send_the_partition_then_drops(self):
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), jitter=0.0)
        a = network.register(Recorder(sim, "a", Site("virginia", 1)))
        b = network.register(Recorder(sim, "b", Site("tokyo", 1)))
        seen = []
        network.taps.append(lambda src, dst, message: seen.append((src.name, dst.name, message.tag)))
        network.partition({"tokyo"})
        a.send(b, Ping(1))
        sim.run()
        assert seen == [("a", "b", 1)]
        assert b.received == [] and network.dropped == 1


class Echo(Recorder):
    """Answers every message once its handler's CPU time has elapsed."""

    def on_message(self, src, message):
        super().on_message(src, message)
        self.send(src, Ping("echo"))


class TestFusedDelivery:
    """``Node.deliver`` runs the handler inside the delivery event when the
    CPU is free, and queues it exactly as before when it is not."""

    def test_arrival_at_idle_cpu_runs_inside_the_delivery_event(self):
        sim, network, a, b = make_pair(cost_ms=2.0)
        a.send(b, Ping(1))
        assert sim.step()  # the delivery event itself
        assert [(at, message.tag) for at, _src, message in b.received] == [(sim.now, 1)]
        assert sim.pending_events == 0  # no second heap entry for the CPU
        assert sim.events_processed == 1

    def test_arrivals_at_a_busy_cpu_queue_in_order(self):
        sim, network, a, b = make_pair(cost_ms=5.0)
        for tag in (1, 2, 3):
            a.send(b, Ping(tag))  # arrive microseconds apart, 5 ms of work each
        sim.run()
        times = [at for at, _src, _message in b.received]
        assert [message.tag for _at, _src, message in b.received] == [1, 2, 3]
        assert times[1] == times[0] + 5.0 and times[2] == times[1] + 5.0
        assert b.busy_ms == 15.0

    def test_arrival_behind_a_queued_task_waits_its_turn(self):
        sim, network, a, b = make_pair()
        order = []
        b.run_task(order.append, "task")  # queued, dispatch pending
        b.deliver(a, Ping("message"))  # CPU idle, but not first in line
        assert order == [] and b.received == []
        sim.run()
        assert order == ["task"] and len(b.received) == 1
        assert sim.events_processed == 2  # one dispatch per queued item

    def test_crash_between_arrival_and_handler_drops_the_message(self):
        sim, network, a, b = make_pair(cost_ms=5.0)
        a.send(b, Ping(1))
        a.send(b, Ping(2))
        sim.run(until=1.0)  # 1 handled on arrival; 2 waits for the CPU
        assert [message.tag for _at, _src, message in b.received] == [1]
        b.crash()
        b.recover()
        sim.run()
        assert [message.tag for _at, _src, message in b.received] == [1]

    def test_charged_cost_sets_busy_horizon_and_delays_the_outbox(self):
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), jitter=0.0)
        a = network.register(Recorder(sim, "a", Site("virginia", 1)))
        b = network.register(Echo(sim, "b", Site("virginia", 2), cost_ms=10.0))
        a.send(b, Ping(1))
        sim.run()
        arrival = b.received[0][0]
        assert b.busy_until == arrival + 10.0 and b.busy_ms == 10.0
        # The echo left b only once the 10 ms of charged CPU had elapsed.
        assert arrival + 10.6 <= a.received[0][0] < arrival + 10.8
