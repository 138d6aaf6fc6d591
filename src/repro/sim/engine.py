"""Deterministic discrete-event simulation engine.

This is the substrate every other subsystem runs on. It is a small,
self-contained cousin of SimPy: an :class:`Environment` owns a schedule
of timestamped events, and *processes* are Python generators that
``yield`` events to suspend until those events fire.

Event lifecycle follows SimPy's two-stage model:

* *triggered* — the event has a value and sits in the schedule;
  ``succeed()`` or construction (for ``Timeout``) put it there.
* *processed* — the scheduler popped it and ran its callbacks. A process
  yielding an already-processed event resumes on the next scheduler step.

A process that raises fails its own event: the exception is thrown into
a process waiting on it, or surfaces from :meth:`Environment.run` when
none is.

Determinism guarantees
----------------------
Every schedule entry takes the next value of a counter that grows by
one per schedule. Events are processed in ``(time, counter)`` order:
those scheduled for the same simulated time run in schedule order, so
two runs with the same seeds produce byte-identical traces. Nothing in
the engine consults wall-clock time or global randomness.

The schedule has two parts (DESIGN.md D25). An entry for the current
instant — a process start, a relay, a completion, ``succeed()``, a
timeout that rounds to no delay — goes to a FIFO *lane*; every later
entry goes to a heap of ``(time, counter, entry)``. A heap entry for
the current instant was pushed before the clock got there, so its
counter is lower than every lane entry's: when the clock advances, the
heap entries of the new instant move to the (then empty) lane first,
and the lane is drained before the clock moves again.

A fired :class:`AnyOf` withdraws the timers that lost it (un-fired
``Timeout`` children whose only callback is that condition). A
withdrawn timer reads ``triggered`` and not ``processed``, never runs a
callback, and a process yielding it raises :class:`SimulationError`.
Until the heap is rebuilt without the withdrawn timers (once they are
at least ``_COMPACT_MIN`` and more than half of it) each one pops as a
step that runs nothing.

Hot-path design (see docs/PERFORMANCE.md)
-----------------------------------------
The scheduler is the single hottest code in the repository: a saturated
Fig. 6 cell schedules hundreds of thousands of entries per simulated
second. Four rules keep it fast without changing the order of events:

* ``run()`` inlines the event-pop loop instead of calling :meth:`step`
  per event (attribute loads and method dispatch dominate otherwise).
* Same-instant entries skip the heap: a deque append and pop instead of
  two O(log n) sifts.
* Internal wake-ups (already-processed targets, process start,
  pre-processed condition children) use lightweight ``__slots__`` relay
  objects instead of full :class:`Event` instances. A relay takes the
  schedule counter the old bridge event took, so event ordering (and
  therefore every simulated result) is bit-for-bit unchanged.
* ``Timeout`` writes its fields directly instead of chaining through
  ``Event.__init__`` (roughly half of all scheduled events are timeouts).

Example
-------
>>> env = Environment()
>>> def hello(env, log):
...     yield env.timeout(3.0)
...     log.append(env.now)
>>> log = []
>>> _ = env.process(hello(env, log))
>>> env.run()
>>> log
[3.0]
"""

from __future__ import annotations

import gc as _gc
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

_INF = float("inf")
#: The heap is rebuilt without withdrawn timers once they are more than
#: half of it and at least this many; a smaller heap pops its few dead
#: entries for less than a rebuild costs.
_COMPACT_MIN = 256


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


class _Withdrawn(list):
    """Callback list of a timer withdrawn by the :class:`AnyOf` it lost."""

    __slots__ = ()

    def append(self, _callback) -> None:
        raise SimulationError("waiting on a timer withdrawn by the any_of it lost")


_WITHDRAWN = _Withdrawn()


class Event:
    """A condition that will fire at some simulated time.

    Processes wait on events by yielding them. An event succeeds with a
    value, and triggers exactly once; only a :class:`Process` that
    raises fails.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        # None once processed; a list while callbacks may still be added.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has a value and is (or was) scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the scheduler already ran this event's callbacks."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        env._counter += 1
        env._lane.append(self)
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ + succeed(): timeouts are born
        # triggered, and they are the single most allocated event type.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        env._counter = counter = env._counter + 1
        now = env._now
        time = now + delay
        if time == now:
            env._lane.append(self)
        else:
            heappush(env._queue, (time, counter, self))


class _Relay:
    """Allocation-light schedule entry that runs one callback next step.

    Used where the engine used to allocate a bridge :class:`Event`: a
    process starting, or a process (or condition) waiting on an
    *already-processed* target, must run on the next scheduler step, in
    schedule order. A relay carries just the four fields the scheduler
    loop touches and takes the schedule counter the bridge event took,
    so ordering is unchanged. It re-delivers the target's result; a
    failure it carries was already surfaced once, so it is born defused.
    """

    __slots__ = ("callbacks", "_value", "_ok", "_defused")

    def __init__(self, callback: Callable, ok: bool = True, value: Any = None):
        self.callbacks: Optional[list] = [callback]
        self._value = value
        self._ok = ok
        self._defused = True


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The process's return value (via ``return x`` in the generator) becomes
    the event value other processes see when waiting on it.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        # Flattened Event.__init__: one process is spawned per handled
        # message, making this one of the hottest constructors.
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Start at the current time, on the next scheduler step.
        env._counter += 1
        env._lane.append(_Relay(self._resume))

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        try:
            if event._ok:
                next_target = generator.send(event._value)
            else:
                event._defused = True
                next_target = generator.throw(event._value)
        except StopIteration as stop:
            self._triggered = True
            self._value = stop.value
            env._counter += 1
            env._lane.append(self)
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            env._counter += 1
            env._lane.append(self)
            return
        callbacks = getattr(next_target, "callbacks", False)
        if callbacks is False:
            raise SimulationError(
                f"process {self.name!r} yielded {next_target!r}, expected an Event"
            )
        if callbacks is None:
            # Already processed: resume on the next scheduler step.
            env._counter += 1
            env._lane.append(_Relay(self._resume, next_target._ok, next_target._value))
        else:
            callbacks.append(self._resume)


class AnyOf(Event):
    """Fires, with no value, as soon as one child event fires.

    Waiters read the child they care about (``get.triggered``), never
    the condition's value. A failed child is not handled here: like any
    unhandled failure it surfaces from :meth:`Environment.run`. Firing
    withdraws the losing timers (see the module docstring).
    """

    __slots__ = ("_children",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._children = children = tuple(events)
        for event in children:
            if event.callbacks is None:
                # Already processed: deliver on the next scheduler step so
                # ordering stays deterministic.
                env._counter += 1
                env._lane.append(_Relay(self._on_child))
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, _event) -> None:
        if self._triggered:
            return
        self.succeed()
        env = self.env
        for child in self._children:
            # A pending timer whose one callback is ours lost this race.
            callbacks = child.callbacks
            if callbacks and len(callbacks) == 1 and type(child) is Timeout:
                child.callbacks = _WITHDRAWN
                env._withdrawn += 1
        self._children = ()
        withdrawn = env._withdrawn
        if withdrawn >= _COMPACT_MIN and withdrawn * 2 > len(env._queue):
            env._compact()


class Environment:
    """The simulation clock and scheduler."""

    # The engine and resource internals read/write these fields millions
    # of times per simulated second; __slots__ turns every one of those
    # instance-dict probes into a fixed-offset load.
    __slots__ = ("_now", "_queue", "_lane", "_counter", "_steps", "_withdrawn")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Entries after the current instant: (time, counter, entry).
        self._queue: list[tuple[float, int, Event]] = []
        # Entries at the current instant, in counter order.
        self._lane: deque = deque()
        self._counter = 0
        self._steps = 0
        # Withdrawn timers still in the schedule.
        self._withdrawn = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Scheduler steps processed so far (observability counter)."""
        return self._steps

    @property
    def scheduled_events(self) -> int:
        """Events ever scheduled (observability counter)."""
        return self._counter

    @property
    def pending(self) -> int:
        """Entries in the schedule now, withdrawn timers not yet dropped
        included (observability counter)."""
        return len(self._queue) + len(self._lane)

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._counter += 1
        now = self._now
        time = now + delay
        if time == now:
            self._lane.append(event)
        else:
            heappush(self._queue, (time, self._counter, event))

    def _compact(self) -> None:
        """Rebuild the heap, in place, without its withdrawn timers."""
        queue = self._queue
        size = len(queue)
        queue[:] = [entry for entry in queue if entry[2].callbacks is not _WITHDRAWN]
        heapify(queue)
        self._withdrawn -= size - len(queue)

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event."""
        queue, lane = self._queue, self._lane
        if lane:
            event = lane.popleft()
        elif queue:
            time, _tick, event = heappop(queue)
            if time < self._now:
                raise SimulationError("scheduler time went backwards")
            self._now = time
            # The clock moved: the rest of this instant's heap entries
            # go to the (empty) lane, ahead of anything scheduled now.
            while queue and queue[0][0] == time:
                lane.append(heappop(queue)[2])
        else:
            raise SimulationError("step() on an empty schedule")
        self._steps += 1
        callbacks = event.callbacks
        if callbacks is None:
            return
        if callbacks is _WITHDRAWN:
            self._withdrawn -= 1
            return
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        if self._lane:
            return self._now
        return self._queue[0][0] if self._queue else _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or simulated time reaches ``until``.

        This is :meth:`step` inlined into a tight loop — the hottest few
        lines of the whole repository; keep it allocation-free. Without
        ``until`` the horizon is infinite and the clock stays at the last
        event; with it the clock ends at ``until``.
        """
        if until is None:
            until = _INF
        elif until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        queue = self._queue
        lane = self._lane
        pop = heappop
        popleft = lane.popleft
        append = lane.append
        withdrawn = _WITHDRAWN
        now = self._now
        steps = self._steps
        # Processed events drop their callback lists, which breaks the
        # reference cycles events/processes form — the refcounter reclaims
        # everything and the cycle collector finds no garbage. Pausing it
        # for the duration of the run avoids periodic full-heap scans in
        # the middle of the hot loop.
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            while True:
                if lane:
                    event = popleft()
                elif queue and queue[0][0] <= until:
                    time, _tick, event = pop(queue)
                    if time < now:
                        raise SimulationError("scheduler time went backwards")
                    self._now = now = time
                    while queue and queue[0][0] == now:
                        append(pop(queue)[2])
                else:
                    break
                steps += 1
                callbacks = event.callbacks
                if callbacks is None:
                    continue
                if callbacks is withdrawn:
                    self._withdrawn -= 1
                    continue
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._steps = steps
            if gc_was_enabled:
                _gc.enable()
        if until != _INF:
            self._now = until
