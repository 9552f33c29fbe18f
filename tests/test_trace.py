"""Tests for the message-tracing facility."""

from repro.metrics.trace import MessageTrace

from tests.test_spider_basic import build_system


def traced_write():
    sim, system = build_system()
    trace = MessageTrace().attach(system.network)
    client = system.make_client("c1", "virginia", group_id="g0")
    future = client.write(("put", "k", "v"))
    sim.run(until=3000.0)
    assert future.done
    return trace


class TestMessageTrace:
    def test_records_request_path(self):
        trace = traced_write()
        counts = trace.count_by_type()
        # The request's journey: client request, IRMC sends, PBFT phases,
        # commit-channel sends, client replies.
        assert counts.get("ClientRequest", 0) >= 3
        assert counts.get("SendMsg", 0) > 0
        assert counts.get("PrePrepare", 0) >= 1
        assert counts.get("Reply", 0) >= 2

    def test_filter_by_type_and_node(self):
        trace = traced_write()
        replies = trace.filter(message_type="Reply")
        assert replies and all(e.message_type == "Reply" for e in replies)
        to_client = trace.filter(node="c1")
        assert all("c1" in (e.src, e.dst) for e in to_client)

    def test_wan_vs_lan_classification(self):
        trace = traced_write()
        wan = trace.filter(wan_only=True)
        # g1 (Tokyo) receives commit-channel traffic over the WAN.
        assert wan
        assert all(event.wan for event in wan)

    def test_time_window_filter(self):
        trace = traced_write()
        early = trace.filter(before_ms=1.0)
        late = trace.filter(after_ms=1.0)
        assert len(early) + len(late) == len(trace.events)

    def test_render_produces_lines(self):
        trace = traced_write()
        text = trace.render(limit=10)
        assert "ms" in text and "->" in text
        assert "more events" in text  # more than ten events recorded

    def test_include_predicate(self):
        sim, system = build_system()
        trace = MessageTrace(include=lambda e: e.message_type == "Reply")
        trace.attach(system.network)
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=3000.0)
        assert trace.events
        assert all(e.message_type == "Reply" for e in trace.events)

    def test_detach_stops_recording(self):
        sim, system = build_system()
        trace = MessageTrace().attach(system.network)
        trace.detach()
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=3000.0)
        assert trace.events == []

    def test_detaching_one_trace_leaves_another_recording(self):
        sim, system = build_system()
        first = MessageTrace().attach(system.network)
        second = MessageTrace().attach(system.network)
        first.detach()
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=3000.0)
        assert first.events == []
        assert second.events == traced_write().events

    def test_limit_caps_memory(self):
        sim, system = build_system()
        trace = MessageTrace(limit=5).attach(system.network)
        client = system.make_client("c1", "virginia", group_id="g0")
        client.write(("put", "k", "v"))
        sim.run(until=3000.0)
        assert len(trace.events) == 5
        assert trace.dropped > 0
