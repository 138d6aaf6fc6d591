"""Property-based tests for leader-side batch assembly (docs/BATCHING.md).

The :class:`~repro.hybster.batching.BatchAssembler` is pure logic — the
replica feeds it requests and timestamps — so Hypothesis can drive it
through arbitrary enqueue/flush interleavings and check the invariants
the protocol relies on:

* requests leave in arrival order (no reordering between a client's
  requests or anyone else's),
* nothing is duplicated or dropped across any sequence of flushes,
* ``take()`` respects ``MAX_BATCH`` and the adaptive cutoff stays within
  ``[MIN_BATCH, MAX_BATCH]``,
* nothing flushes while the agreement pipeline is full,
* the batch digest is a deterministic, order-sensitive function of the
  request tuple (the counter certificate covers entry order).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kvstore import put
from repro.hybster.batching import (
    BATCH_WAIT, MAX_BATCH, MIN_BATCH, PIPELINE_DEPTH, BatchAssembler,
)
from repro.hybster.messages import Batch, Request


def make_request(i: int) -> Request:
    return Request(
        client_id=f"client-{i % 5}",
        request_id=i,
        op=put(f"k{i % 3}", f"v{i}".encode()),
        origin="replica-0",
    )


#: A run's arrival gap, from far below to far above ``BATCH_WAIT``, so
#: across runs the cutoff sweeps its whole range, ``MIN_BATCH`` to the cap.
GAPS = st.sampled_from([0.0, 1e-7, 1e-6, 1e-5, BATCH_WAIT, 1e-3])
#: In-flight batches a flush attempt sees: idle, moving, full, past full.
INFLIGHT = st.sampled_from([0, 1, 2, PIPELINE_DEPTH - 1, PIPELINE_DEPTH, PIPELINE_DEPTH + 2])


@st.composite
def assembler_runs(draw):
    """A schedule of (enqueue | flush-attempt) steps with non-decreasing
    timestamps. In a run with rare flush attempts the buffer outgrows
    ``MAX_BATCH``, so ``take()`` meets the cap; an occasional pause of a
    hundred gaps lets a flush attempt find the oldest request overdue."""
    enqueues_per_flush = draw(st.sampled_from([1, 7, 100]))
    gap = draw(GAPS)
    steps = []
    now = 0.0
    for i in range(draw(st.integers(min_value=1, max_value=160))):
        now += gap * draw(st.sampled_from([0, 1, 2, 100]))
        if draw(st.integers(0, enqueues_per_flush)):
            steps.append(("enqueue", now, i))
        else:
            steps.append(("flush", now, draw(INFLIGHT)))
    return steps


@given(assembler_runs())
@settings(max_examples=200, deadline=None)
def test_no_reordering_no_dup_no_drop(run):
    """Concatenating every flushed batch plus the final drain replays the
    exact enqueue sequence: FIFO order, each request exactly once."""
    assembler = BatchAssembler()
    enqueued, flushed = [], []
    for kind, now, arg in run:
        if kind == "enqueue":
            request = make_request(arg)
            enqueued.append(request)
            assembler.enqueue(request, now)
        else:
            reason = assembler.flush_reason(now, inflight=arg)
            if reason is not None:
                batch = assembler.take()
                assert batch, f"flush_reason {reason!r} but take() was empty"
                flushed.append((reason, batch))
    remaining = assembler.drain()
    assert len(assembler) == 0 and assembler.pending == ()
    replayed = [r for _reason, batch in flushed for r in batch] + list(remaining)
    assert replayed == enqueued


@given(assembler_runs())
@settings(max_examples=200, deadline=None)
def test_caps_and_pipeline_respected(run):
    assembler = BatchAssembler()
    for kind, now, arg in run:
        if kind == "enqueue":
            assembler.enqueue(make_request(arg), now)
        else:
            cutoff = assembler.cutoff()
            assert MIN_BATCH <= cutoff <= MAX_BATCH
            reason = assembler.flush_reason(now, inflight=arg)
            if arg >= PIPELINE_DEPTH:
                assert reason is None, "flushed into a full pipeline"
            if reason is not None:
                buffered = len(assembler)
                assert len(assembler.take()) == min(buffered, MAX_BATCH)


@given(assembler_runs())
@settings(max_examples=100, deadline=None)
def test_flush_reasons_are_justified(run):
    """Each reported reason matches the state that triggered it."""
    assembler = BatchAssembler()
    for kind, now, arg in run:
        if kind == "enqueue":
            assembler.enqueue(make_request(arg), now)
            continue
        buffered = len(assembler)
        deadline = assembler.deadline
        reason = assembler.flush_reason(now, inflight=arg)
        if reason is None:
            continue
        assert buffered > 0
        if reason == "size":
            assert buffered >= assembler.cutoff()
        elif reason == "idle":
            assert arg == 0
        elif reason == "timeout":
            assert deadline is not None and now >= deadline
        else:
            raise AssertionError(f"unknown flush reason {reason!r}")
        assembler.take()


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=2,
                max_size=16, unique=True))
@settings(max_examples=200, deadline=None)
def test_batch_digest_deterministic_and_order_sensitive(ids):
    requests = tuple(make_request(i) for i in ids)
    rebuilt = tuple(make_request(i) for i in ids)
    assert Batch(requests).digest() == Batch(rebuilt).digest()
    rotated = requests[1:] + requests[:1]
    assert Batch(rotated).digest() != Batch(requests).digest()


@given(st.floats(min_value=1e-8, max_value=1e-3))
@settings(max_examples=200, deadline=None)
def test_adaptive_cutoff_tracks_arrival_rate_within_bounds(gap):
    """Under a steady arrival rate the cutoff converges to the number of
    arrivals expected per wait window, clamped to the caps; a backlog
    past ``MAX_BATCH`` leaves in batches of exactly the cap."""
    assembler = BatchAssembler()
    arrivals = MAX_BATCH + 36
    for i in range(arrivals):
        assembler.enqueue(make_request(i), i * gap)
    cutoff = assembler.cutoff()

    def clamped(ratio):
        return min(MAX_BATCH, max(MIN_BATCH, int(ratio)))

    # The smoothed gap is built from differences of ``i * gap`` and is
    # only equal to ``gap`` up to float rounding, so a ratio sitting on
    # an integer (gap=1e-5) may truncate to either side.
    ratio = BATCH_WAIT / gap
    assert clamped(ratio * (1 - 1e-9)) <= cutoff <= clamped(ratio * (1 + 1e-9))
    assert MIN_BATCH <= cutoff <= MAX_BATCH
    assert len(assembler.take()) == MAX_BATCH
    assert len(assembler.take()) == arrivals - MAX_BATCH
