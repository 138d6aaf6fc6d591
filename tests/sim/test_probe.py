"""Unit tests for the probe bus and for the trace log as its subscriber."""

from types import SimpleNamespace

import pytest

from repro.sim import Environment, Probe, Tracer


class Sink:
    """Records what it is told; ``begin`` answers with a state."""

    def __init__(self):
        self.seen = []

    def event(self, t, kind, node, subject, attrs):
        self.seen.append(("event", t, kind, node, subject, dict(attrs)))

    def begin(self, t, kind, node, subject, attrs):
        self.seen.append(("begin", t, kind, node, subject, dict(attrs)))
        return kind

    def end(self, t, state, attrs):
        self.seen.append(("end", t, state, dict(attrs)))


def at(env, t):
    env.run(until=t)
    return env


def test_a_bus_is_off_until_somebody_subscribes():
    probe = Probe(Environment())
    assert probe.on is False
    sink = Sink()
    probe.subscribe(sink)
    probe.subscribe(sink)  # once
    assert probe.on is True
    probe.event("k", "n")
    assert len(sink.seen) == 1
    probe.unsubscribe(sink)
    probe.unsubscribe(sink)  # a no-op, not an error
    assert probe.on is False


def test_the_three_verbs_carry_the_clock_and_plain_values():
    env = Environment()
    probe = Probe(env)
    sink = Sink()
    probe.subscribe(sink)
    at(env, 1.5)
    subject = object()
    probe.event("x.happened", "node-1", subject, seq=7)
    token = probe.begin("x.phase", "node-1", subject, size=3)
    at(env, 2.0)
    probe.end(token, outcome="ok")
    assert sink.seen == [
        ("event", 1.5, "x.happened", "node-1", subject, {"seq": 7}),
        ("begin", 1.5, "x.phase", "node-1", subject, {"size": 3}),
        ("end", 2.0, "x.phase", {"outcome": "ok"}),
    ]


def test_end_after_unsubscribe_is_a_no_op_for_the_one_that_left():
    probe = Probe(Environment())
    stays, leaves = Sink(), Sink()
    probe.subscribe(stays)
    probe.subscribe(leaves)
    token = probe.begin("x.phase", "n")
    probe.unsubscribe(leaves)
    probe.end(token)
    assert [entry[0] for entry in stays.seen] == ["begin", "end"]
    assert [entry[0] for entry in leaves.seen] == ["begin"]
    # ... and a late subscriber never hears the end of what it did not see begin.
    late = Sink()
    token = probe.begin("x.phase", "n")
    probe.subscribe(late)
    probe.end(token)
    assert late.seen == []


def test_a_subscriber_implements_the_verbs_it_consumes():
    probe = Probe(Environment())
    only_events = SimpleNamespace(event=lambda *a: heard.append(a[1]))
    only_begins = SimpleNamespace(begin=lambda *a: heard.append(a[1]))
    heard = []
    probe.subscribe(only_events)
    probe.subscribe(only_begins)
    probe.event("an.event", "n")
    probe.end(probe.begin("a.begin", "n"))  # begin answered None: no end owed
    assert heard == ["an.event", "a.begin"]


def test_a_bus_without_a_clock_takes_no_subscriber():
    probe = Probe()
    assert probe.on is False
    with pytest.raises(ValueError, match="clock"):
        probe.subscribe(Sink())


# -- the trace log: one format rule per category -------------------------------


def logged(kind, node, subject=None, **attrs):
    probe = Probe(Environment())
    tracer = Tracer()
    probe.subscribe(tracer)
    probe.event(kind, node, subject, **attrs)
    return [(r.category, r.node, r.detail) for r in tracer.records]


def test_the_trace_log_renders_its_categories_from_values():
    order = type("Order", (), {})()
    request = SimpleNamespace(client_id="client-1", request_id=4)
    assert logged("proto.send", "r0", order, dst="r1", seq=9) == [
        ("proto.send", "r0", "Order->r1 seq=9")]
    assert logged("proto.send", "r0", order, dst="r1") == [("proto.send", "r0", "Order->r1 ")]
    assert logged("proto.send", "r0", order, dst="r1", client="c", rid=2)[0][2] == (
        "Order->r1 client=c rid=2")
    assert logged("proto.send", "r0", order, dst="r1", lease="k")[0][2] == "Order->r1 lease key=k"
    assert logged("proto.send", "r0", order, dst="r1", refetch=3)[0][2] == "Order->r1 refetch seq=3"
    assert logged("proto.send", "r0", order, dst="r1", state=8)[0][2] == "Order->r1 state@8"
    assert logged("proto.reply", "r0", request, dst="m0") == [
        ("proto.send", "r0", "reply rid=4 ->m0")]
    assert logged("hybster.commit", "r0", request, seq=5) == [("proto.commit", "r0", "seq=5")]
    assert logged("proto.execute", "r0", request, seq=5) == [
        ("proto.execute", "r0", "seq=5 client=client-1 rid=4")]
    assert logged("hybster.batch", "r0", (request, request), reason="size", depth=2) == [
        ("proto.batch", "r0", "n=2 reason=size depth=2")]
    assert logged("proto.newview", "r0", view=2, installed=True)[0][2] == "installed view=2"
    assert logged("proto.newview", "r0", view=2)[0][2] == "view=2"
    msg = SimpleNamespace(src="a", dst="b", payload=order, size=40)
    assert logged("net.deliver", "b", msg) == [("net.deliver", "b", "a->b Order (40 B)")]
    assert logged("net.fault", "a", order, dst="b", size=40)[0][2] == (
        "->b dropped by filter (40 B)")


def test_the_trace_log_ignores_what_has_no_rule_and_span_opens():
    assert logged("troxy.fast_read", "r0", outcome="hit") == []
    probe = Probe(Environment())
    tracer = Tracer()
    probe.subscribe(tracer)
    probe.end(probe.begin("hybster.order", "r0"))
    assert tracer.records == []
