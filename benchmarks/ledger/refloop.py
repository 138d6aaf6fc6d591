"""A frozen reference loop: the ruler host CPU time is read against.

The box this benchmark runs on changes speed by 20-40 % for seconds to
minutes at a time (shared cores), so raw CPU-seconds of one fixed piece
of work spread by 15-25 % from pass to pass. The slow-down hits all
interpreter-bound Python, so every slice of a measured window is
bracketed by two *chunks* of this loop — a fixed amount of work of the
same character as the simulator (generator processes resumed through a
heap of events, callbacks, small objects, dict lookups, a MAC and a
hash per message) — and :func:`reference_seconds` scales the slice's
CPU time by how slow the chunks ran. The result is CPU time in
*reference seconds*: what the slice would have cost with the box in its
usual state (README.md, "Noise", has the measurements).

This file is part of the ruler. It imports nothing from ``repro`` and
must not change when the program does: editing it re-bases every host
metric.
"""

from __future__ import annotations

import hashlib
import hmac
import time
from collections import deque
from heapq import heappop, heappush

CHUNK_EVENTS = 12_000
#: CPU-seconds one chunk takes on the 2-core reference box (median over
#: 1600 chunks); it only fixes the unit of the calibrated numbers.
NOMINAL_CHUNK_S = 0.0215
#: When the box slows this loop by a factor x, it slows the simulator by
#: about x ** SENSITIVITY: the loop's working set fits the cache, the
#: simulator's does not, so less of its time scales with core speed.
#: Fitted (log-log slope over 130 passes of the four workloads: 0.55-0.64,
#: biased low by chunk timing noise) and chosen where the spread of the
#: calibrated numbers was smallest.
SENSITIVITY = 0.7


def reference_seconds(cpu_s: float, chunk_s: float) -> float:
    """``cpu_s`` rescaled to the box's usual speed, given how long the
    reference chunks around it took."""
    return cpu_s * (NOMINAL_CHUNK_S / chunk_s) ** SENSITIVITY


def bracket(ruler: "ReferenceLoop", slices):
    """Pull each slice of work from ``slices`` between two chunks.

    Yields ``[what the slice returned, mean CPU-seconds of the chunks
    before and after it]``; ``slices`` is a generator that does one
    slice of work per ``next()``.
    """
    before = ruler.chunk()
    for result in slices:
        after = ruler.chunk()
        yield [result, (before + after) / 2]
        before = after


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self):
        self.callbacks = []
        self.value = None


class _Message:
    __slots__ = ("src", "seq", "body", "tag")

    def __init__(self, src, seq, body, tag):
        self.src = src
        self.seq = seq
        self.body = body
        self.tag = tag


class ReferenceLoop:
    """A miniature event simulator doing a fixed kind of work forever."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.counter = 0
        self.inboxes = {name: deque() for name in ("a", "b", "c")}
        self.waiting = {}
        self.seen = {}
        self.key = b"reference-loop-key"
        names = list(self.inboxes)
        for index, name in enumerate(names):
            for lane in range(4):
                self._start(self._ticker(5e-6 * (lane + 1)))
            self._start(self._server(name))
            self._start(self._client(name, names[(index + 1) % len(names)]))

    # -- engine ------------------------------------------------------------

    def _schedule(self, event, delay):
        self.counter += 1
        heappush(self.queue, (self.now + delay, 1, self.counter, event))

    def _timeout(self, delay):
        event = _Event()
        self._schedule(event, delay)
        return event

    def _start(self, generator):
        def resume(event):
            try:
                target = generator.send(event.value)
            except StopIteration:
                return
            target.callbacks.append(resume)

        first = _Event()
        first.callbacks.append(resume)
        self._schedule(first, 0.0)

    def _put(self, name, message):
        waiter = self.waiting.pop(name, None)
        if waiter is None:
            self.inboxes[name].append(message)
        else:
            waiter.value = message
            self._schedule(waiter, 0.0)

    def _get(self, name):
        event = _Event()
        inbox = self.inboxes[name]
        if inbox:
            event.value = inbox.popleft()
            self._schedule(event, 0.0)
        else:
            self.waiting[name] = event
        return event

    # -- processes ---------------------------------------------------------

    def _ticker(self, period):
        while True:
            yield self._timeout(period)

    def _client(self, name, peer):
        seq = 0
        body = b"x" * 64
        while True:
            seq += 1
            data = b"%s:%d:" % (name.encode(), seq) + body
            tag = hmac.digest(self.key, data, "sha256")
            self._put(peer, _Message(name, seq, data, tag))
            yield self._timeout(20e-6)

    def _server(self, name):
        seen = self.seen
        while True:
            message = yield self._get(name)
            expected = hmac.digest(self.key, message.body, "sha256")
            if hmac.compare_digest(expected, message.tag):
                digest = hashlib.sha256(message.body).digest()
                seen[(message.src, message.seq % 512)] = digest
            yield self._timeout(3e-6)

    # -- the ruler ---------------------------------------------------------

    def chunk(self) -> float:
        """Process CHUNK_EVENTS events; return the CPU-seconds it took."""
        queue = self.queue
        start = time.process_time()
        for _ in range(CHUNK_EVENTS):
            self.now, _priority, _tick, event = heappop(queue)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
        return time.process_time() - start
