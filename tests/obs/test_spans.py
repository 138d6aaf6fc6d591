"""Unit tests for the hierarchical sim-time span recorder."""

import pytest

from repro.obs.spans import SpanRecorder, trace_key


class _Msg:
    def __init__(self, client_id, request_id):
        self.client_id = client_id
        self.request_id = request_id


def test_trace_key_format():
    assert trace_key(_Msg("client-3", 17)) == "client-3#17"


def test_nested_spans_parent_to_innermost_open():
    rec = SpanRecorder()
    outer = rec.begin("client.invoke", 0.0, trace_id="c#1", node="client-0")
    inner = rec.begin("troxy.host", 0.1, trace_id="c#1", node="client-0")
    assert inner.parent_id == outer.span_id
    rec.end(inner, 0.2)
    rec.end(outer, 0.3)
    assert outer.duration == pytest.approx(0.3)
    assert not outer.open


def test_node_aware_parenting_prefers_same_node():
    rec = SpanRecorder()
    rec.begin("client.invoke", 0.0, trace_id="c#1", node="client-0")
    r0 = rec.begin("hybster.execute", 0.1, trace_id="c#1", node="replica-0")
    r1 = rec.begin("hybster.execute", 0.1, trace_id="c#1", node="replica-1")
    # Each replica's ecall nests under *its own* execute span, not under
    # whichever execute happens to sit on top of the shared trace stack.
    e0 = rec.begin("enclave.ecall:x", 0.15, trace_id="c#1", node="replica-0")
    e1 = rec.begin("enclave.ecall:x", 0.15, trace_id="c#1", node="replica-1")
    assert e0.parent_id == r0.span_id
    assert e1.parent_id == r1.span_id


def test_explicit_parent_override_and_root():
    rec = SpanRecorder()
    a = rec.begin("a", 0.0, trace_id="t", node="n")
    b = rec.begin("b", 0.1, trace_id="t", node="m", parent=a)
    root = rec.begin("c", 0.1, trace_id="t", node="n", parent=None)
    assert b.parent_id == a.span_id
    assert root.parent_id is None


def test_event_is_closed_instantly():
    rec = SpanRecorder()
    ev = rec.event("hybster.commit", 1.5, trace_id="t", node="n", seq=4)
    assert ev.kind == "event"
    assert ev.end == 1.5
    assert ev.attrs["seq"] == 4
    assert not ev.open


def test_end_twice_and_time_travel_rejected():
    rec = SpanRecorder()
    span = rec.begin("a", 1.0, trace_id="t", node="n")
    with pytest.raises(ValueError):
        rec.end(span, 0.5)
    rec.end(span, 2.0)
    with pytest.raises(ValueError):
        rec.end(span, 3.0)


def test_finish_closes_open_spans():
    rec = SpanRecorder()
    rec.begin("a", 0.0, trace_id="t", node="n")
    done = rec.begin("b", 0.1, trace_id="t", node="n")
    rec.end(done, 0.2)
    assert rec.finish(1.0) == 1
    assert rec.open_count == 0
    forced = rec.trace("t")[0]
    assert forced.end == 1.0
    assert forced.attrs["unfinished"] is True


def test_trace_queries():
    rec = SpanRecorder()
    rec.begin("a", 0.0, trace_id="t1", node="n")
    rec.begin("b", 0.1, trace_id="t2", node="n")
    rec.event("c", 0.2, trace_id="t1", node="n")
    rec.finish(1.0)
    assert rec.trace_ids() == ["t1", "t2"]
    assert [s.name for s in rec.roots("t1")] == ["a"]
    assert len(rec.trace("t1")) == 2
    assert len(rec) == 3
