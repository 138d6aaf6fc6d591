"""Property-based tests for leader-side batch assembly (docs/BATCHING.md).

The :class:`~repro.hybster.batching.BatchAssembler` is pure logic — the
replica feeds it requests and timestamps — so Hypothesis can drive it
through arbitrary enqueue/flush interleavings and check the invariants
the protocol relies on:

* requests leave in arrival order (no reordering between a client's
  requests or anyone else's),
* nothing is duplicated or dropped across any sequence of flushes,
* ``take()`` respects ``max_batch`` and the adaptive cutoff stays within
  ``[min_batch, max_batch]``,
* nothing flushes while the agreement pipeline is full,
* the batch digest is a deterministic, order-sensitive function of the
  request tuple (the counter certificate covers entry order).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kvstore import put
from repro.hybster.batching import BatchAssembler
from repro.hybster.config import BatchConfig
from repro.hybster.messages import Batch, Request


def make_request(i: int) -> Request:
    return Request(
        client_id=f"client-{i % 5}",
        request_id=i,
        op=put(f"k{i % 3}", f"v{i}".encode()),
        origin="replica-0",
    )


@st.composite
def batch_configs(draw):
    max_batch = draw(st.integers(min_value=1, max_value=32))
    adaptive = draw(st.booleans())
    return BatchConfig(
        max_batch=max_batch,
        min_batch=draw(st.integers(min_value=1, max_value=max_batch)),
        batch_wait=draw(st.sampled_from([0.001, 0.01] if adaptive else [0.0, 0.001, 0.01])),
        pipeline_depth=draw(st.integers(min_value=1, max_value=8)),
        adaptive=adaptive,
    )


@st.composite
def assembler_runs(draw):
    """An assembler plus a schedule of (enqueue | flush-attempt) steps
    with non-decreasing timestamps and arbitrary in-flight counts."""
    config = draw(batch_configs())
    steps = []
    now = 0.0
    for i in range(draw(st.integers(min_value=1, max_value=40))):
        now += draw(st.floats(min_value=0.0, max_value=0.01))
        if draw(st.booleans()):
            steps.append(("enqueue", now, i))
        else:
            steps.append(("flush", now, draw(st.integers(0, 10))))
    return config, steps


@given(assembler_runs())
@settings(max_examples=200, deadline=None)
def test_no_reordering_no_dup_no_drop(run):
    """Concatenating every flushed batch plus the final drain replays the
    exact enqueue sequence: FIFO order, each request exactly once."""
    config, steps = run
    assembler = BatchAssembler(config)
    enqueued, flushed = [], []
    for kind, now, arg in steps:
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
    config, steps = run
    assembler = BatchAssembler(config)
    for kind, now, arg in steps:
        if kind == "enqueue":
            assembler.enqueue(make_request(arg), now)
        else:
            cutoff = assembler.cutoff()
            assert config.min_batch <= cutoff <= config.max_batch
            reason = assembler.flush_reason(now, inflight=arg)
            if arg >= config.pipeline_depth:
                assert reason is None, "flushed into a full pipeline"
            if reason is not None:
                assert len(assembler.take()) <= config.max_batch


@given(assembler_runs())
@settings(max_examples=100, deadline=None)
def test_flush_reasons_are_justified(run):
    """Each reported reason matches the state that triggered it."""
    config, steps = run
    assembler = BatchAssembler(config)
    for kind, now, arg in steps:
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
        elif reason == "drain":
            assert config.batch_wait <= 0
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


@given(st.integers(min_value=2, max_value=64),
       st.floats(min_value=1e-6, max_value=1e-3),
       st.floats(min_value=1e-6, max_value=1e-2))
@settings(max_examples=200, deadline=None)
def test_adaptive_cutoff_tracks_arrival_rate_within_bounds(max_batch, gap, wait):
    """Under a steady arrival rate the adaptive cutoff converges to the
    number of arrivals expected per wait window, clamped to the caps."""
    config = BatchConfig(
        max_batch=max_batch, batch_wait=wait, pipeline_depth=4, adaptive=True
    )
    assembler = BatchAssembler(config)
    for i in range(50):
        assembler.enqueue(make_request(i), i * gap)
    cutoff = assembler.cutoff()

    def clamped(ratio):
        return min(max_batch, max(config.min_batch, int(ratio)))

    # The smoothed gap is built from differences of ``i * gap`` and is
    # only equal to ``gap`` up to float rounding, so a ratio sitting on
    # an integer (wait=0.01, gap=0.001) may truncate to either side.
    ratio = wait / gap
    assert clamped(ratio * (1 - 1e-9)) <= cutoff <= clamped(ratio * (1 + 1e-9))
    assert config.min_batch <= cutoff <= config.max_batch
