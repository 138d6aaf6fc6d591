"""Property-based tests for the observability primitives.

The critical-path analyzer rests on :class:`~repro.obs.spans.SpanRecorder`,
so Hypothesis drives its tree invariants through arbitrary schedules:
every ``parent_id`` resolves to a recorded span of the same trace that
was open at child-begin time (no orphans, no cross-trace edges), and
``finish()`` closes every open span exactly once, idempotently.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import SpanRecorder


@st.composite
def recorder_runs(draw):
    """A recorder driven through an arbitrary begin/end/event schedule."""
    rec = SpanRecorder()
    open_spans = []
    now = 0.0
    for i in range(draw(st.integers(min_value=1, max_value=50))):
        now += draw(st.floats(min_value=0.0, max_value=0.5))
        action = draw(st.sampled_from(["begin", "begin", "end", "event"]))
        trace = draw(st.sampled_from(["t0", "t1", "t2", None]))
        node = draw(st.sampled_from(["n0", "n1"]))
        if action == "begin":
            open_spans.append(rec.begin(f"phase{i % 4}", now,
                                        trace_id=trace, node=node))
        elif action == "event":
            rec.event(f"mark{i % 3}", now, trace_id=trace, node=node)
        elif open_spans:
            span = open_spans.pop(draw(
                st.integers(min_value=0, max_value=len(open_spans) - 1)
            ))
            rec.end(span, max(now, span.start))
    return rec, now


@given(recorder_runs())
@settings(max_examples=60, deadline=None)
def test_span_tree_has_no_orphan_or_cross_trace_parents(run):
    rec, _ = run
    by_id = {span.span_id: span for span in rec.spans}
    for span in rec.spans:
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        assert parent is not None, f"orphan parent on span {span.span_id}"
        assert parent.trace_id == span.trace_id
        assert parent.start <= span.start
        # The parent was still open when the child began.
        assert parent.end is None or parent.end >= span.start


@given(recorder_runs())
@settings(max_examples=60, deadline=None)
def test_finish_closes_open_spans_exactly_once(run):
    rec, now = run
    open_before = rec.open_count
    closed = rec.finish(now)
    assert closed == open_before
    assert rec.open_count == 0
    forced = [s for s in rec.spans if s.attrs.get("unfinished")]
    assert len(forced) == closed
    for span in rec.spans:
        assert span.end is not None and span.end >= span.start
    # Idempotent: a second finish has nothing left to close.
    assert rec.finish(now + 1.0) == 0
    assert len([s for s in rec.spans if s.attrs.get("unfinished")]) == closed
