"""Leader-side batching: the pure flush policy and the replica role
that drives it.

The :class:`BatchAssembler` owns the leader's request buffer and decides
when a batch should be cut: on size (the cutoff filled), on time (the
oldest buffered request waited ``BATCH_WAIT``) or on an idle pipeline
(nothing in flight to overlap with, so waiting would only add latency).

The assembler touches no :mod:`repro.sim` type, which makes it directly
property-testable (``tests/property/test_batching_properties.py``): it
is fed requests and timestamps, and everything it returns is a pure
function of that sequence. :class:`BatchPipeline` is the role that
feeds it (DESIGN.md D11): it exists only on a replica whose
``config.batching`` is on, and owns the wake-up signal, the in-flight
slots and the ``<replica>:batcher`` process.

There is one policy (DESIGN.md D20). The assembler tracks an EWMA of
request inter-arrival gaps and aims the cutoff at the number of
requests expected to arrive within one ``BATCH_WAIT`` window — light
load degrades towards single-request batches (no added latency), heavy
load grows batches towards ``MAX_BATCH`` (amortized certification).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..sim.resources import Store
from .messages import Batch, Request

#: Cap on the requests one batch (one certified counter value) carries.
MAX_BATCH = 64
#: Longest the oldest buffered request waits for its batch to fill;
#: short enough not to tax closed-loop latency on the fig6 local-writes
#: workload (benchmarks/results/batching.txt).
BATCH_WAIT = 50e-6
#: Batches that may be ordered but not yet committed. Deep enough that
#: the cutoff, not the pipeline, decides the batch size.
PIPELINE_DEPTH = 16
#: Floor of the adaptive cutoff.
MIN_BATCH = 1

#: Smoothing factor for the inter-arrival EWMA; small enough to ride out
#: bursts, large enough to track a load shift within tens of requests.
_EWMA_ALPHA = 0.2


class BatchAssembler:
    """FIFO request buffer with size/time/pipeline flush policy."""

    def __init__(self):
        self._buffer: deque[tuple[Request, float]] = deque()
        self._ewma_gap: Optional[float] = None
        self._last_arrival: Optional[float] = None

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def pending(self) -> tuple[Request, ...]:
        """Snapshot of buffered requests in arrival order (tests)."""
        return tuple(request for request, _t in self._buffer)

    @property
    def deadline(self) -> Optional[float]:
        """When the oldest buffered request must flush, or None."""
        if not self._buffer:
            return None
        return self._buffer[0][1] + BATCH_WAIT

    def enqueue(self, request: Request, now: float) -> None:
        """Buffer one request, updating the arrival-rate estimate."""
        if self._last_arrival is not None:
            gap = now - self._last_arrival
            if self._ewma_gap is None:
                self._ewma_gap = gap
            else:
                self._ewma_gap += _EWMA_ALPHA * (gap - self._ewma_gap)
        self._last_arrival = now
        self._buffer.append((request, now))

    def cutoff(self) -> int:
        """Requests worth waiting for before cutting a batch."""
        if not self._ewma_gap or self._ewma_gap <= 0:
            return MIN_BATCH
        # A denormally small gap makes the ratio overflow int(); any
        # ratio beyond MAX_BATCH clamps there anyway.
        expected = BATCH_WAIT / self._ewma_gap
        if expected >= MAX_BATCH:
            return MAX_BATCH
        return max(MIN_BATCH, int(expected))

    def flush_reason(self, now: float, inflight: int) -> Optional[str]:
        """Why a batch should be cut right now, or None to keep waiting.

        ``inflight`` is the number of batches ordered but not yet
        committed; at or above ``PIPELINE_DEPTH`` nothing may flush.
        """
        if not self._buffer or inflight >= PIPELINE_DEPTH:
            return None
        if len(self._buffer) >= self.cutoff():
            return "size"
        if inflight == 0:
            return "idle"
        if now >= self._buffer[0][1] + BATCH_WAIT:
            return "timeout"
        return None

    def take(self) -> tuple[Request, ...]:
        """Pop the next batch (up to ``MAX_BATCH`` requests, FIFO)."""
        count = min(len(self._buffer), MAX_BATCH)
        return tuple(self._buffer.popleft()[0] for _ in range(count))

    def drain(self) -> tuple[Request, ...]:
        """Drop and return everything buffered (view change / restart);
        callers un-register the dropped requests so client
        retransmissions can be ordered again later."""
        dropped = tuple(request for request, _t in self._buffer)
        self._buffer.clear()
        return dropped


class BatchPipeline:
    """The batching role of one replica; absent unless batching is on.

    The replica core reaches it at one-line seams: ``enqueue`` (an
    admitted request), ``slot_opened`` / ``slot_committed`` (pipeline
    occupancy) and ``drop_backlog`` (view change, restart)."""

    def __init__(self, replica):
        self.replica = replica
        self.assembler = BatchAssembler()
        self._signal = Store(replica.env)
        # Slots holding a batch this leader ordered but has not yet seen
        # committed; its size is the pipeline occupancy.
        self._inflight_seqs: set[int] = set()
        self._generation = 0

    def start(self) -> None:
        """Spawn the batch loop (construction and every restart); a loop
        of an earlier generation retires itself at its next wake-up."""
        self._generation += 1
        self.replica.env.process(
            self._loop(self._generation), name=f"{self.replica.replica_id}:batcher"
        )

    def enqueue(self, request: Request) -> None:
        replica = self.replica
        self.assembler.enqueue(request, replica.env.now)
        if replica.probe.on:
            replica.probe.event("hybster.queue", replica.node.name, request)
        self._signal.put(True)

    def slot_opened(self, seq: int) -> None:
        self._inflight_seqs.add(seq)

    def slot_committed(self, seq: int) -> None:
        if seq in self._inflight_seqs:
            # A pipeline slot freed up; if backlog is waiting, wake
            # the batch loop so it can cut the next batch.
            self._inflight_seqs.discard(seq)
            if len(self.assembler):
                self._signal.put(True)

    def drop_backlog(self) -> None:
        """Discard buffered-but-unordered requests (view change, restart,
        leadership loss). Un-registering them from ``_inflight`` lets
        client retransmissions be ordered again later."""
        replica = self.replica
        dropped = self.assembler.drain()
        for request in dropped:
            replica._inflight.discard((request.client_id, request.request_id))
        if replica.probe.on:
            replica.probe.event("hybster.queue_drop", replica.node.name, dropped)
        self._inflight_seqs.clear()

    def _loop(self, generation: int):
        """The only process that cuts and orders batches on this leader.

        Serializing flushes through one process keeps batch formation
        deterministic and makes the take-buffer/assign-slot step atomic
        (no yield between them), so FIFO arrival order maps onto
        monotonically increasing slot numbers.
        """
        replica = self.replica
        signal = self._signal
        while True:
            yield signal.get()
            if generation != self._generation:
                if not replica._stopped:
                    signal.put(True)  # hand the wakeup to the fresh loop
                return
            if replica._stopped:
                return
            yield from self._drain(generation)
            if replica._stopped or generation != self._generation:
                return

    def _drain(self, generation: int):
        """Cut and order batches while the flush policy allows it."""
        replica = self.replica
        env = replica.env
        stats = replica.stats
        batcher = self.assembler
        while generation == self._generation and replica.may_order:
            inflight = len(self._inflight_seqs)
            reason = batcher.flush_reason(env.now, inflight)
            if reason is not None:
                requests = batcher.take()
                if not requests:
                    return
                payload = requests[0] if len(requests) == 1 else Batch(requests)
                stats.batches_sent += 1
                stats.batched_requests += len(requests)
                counter = "batch_flush_" + reason
                setattr(stats, counter, getattr(stats, counter) + 1)
                depth = inflight + 1
                if depth > stats.max_pipeline_depth:
                    stats.max_pipeline_depth = depth
                if replica.probe.on:
                    # One fact: these requests left the queue as one batch.
                    replica.probe.event(
                        "hybster.batch", replica.node.name, requests,
                        reason=reason, depth=depth,
                    )
                yield from replica._order(payload)
                continue
            deadline = batcher.deadline
            if deadline is None or inflight >= PIPELINE_DEPTH:
                return  # nothing to do until the next enqueue/commit signal
            # Buffered below the cutoff with the pipeline still moving:
            # wait for the flush deadline or more arrivals, whichever
            # comes first, then re-evaluate.
            get_event = self._signal.get()
            timeout = env.timeout(deadline - env.now)
            yield env.any_of((get_event, timeout))
            if not get_event.triggered:
                self._signal.cancel(get_event)
