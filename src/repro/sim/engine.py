"""Deterministic discrete-event simulation engine.

This is the substrate every other subsystem runs on. It is a small,
self-contained cousin of SimPy: an :class:`Environment` owns a priority
queue of timestamped events, and *processes* are Python generators that
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
Every heap entry is ``(time, counter, entry)``. Events scheduled for the
same simulated time are processed in schedule order (the counter grows
monotonically), so two runs with the same seeds produce byte-identical
traces. Nothing in the engine consults wall-clock time or global
randomness.

Hot-path design (see docs/PERFORMANCE.md)
-----------------------------------------
The scheduler is the single hottest code in the repository: a saturated
Fig. 6 cell pushes and pops hundreds of thousands of heap entries per
simulated second. Three rules keep it fast without changing semantics:

* ``run()`` inlines the event-pop loop instead of calling :meth:`step`
  per event (attribute loads and method dispatch dominate otherwise).
* Internal wake-ups (already-processed targets, process start,
  pre-processed condition children) use lightweight ``__slots__`` relay
  objects instead of full :class:`Event` instances. A relay occupies
  exactly the heap slot the old bridge event did — same schedule
  counter — so event ordering (and therefore every simulated result) is
  bit-for-bit unchanged.
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
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

_INF = float("inf")


class SimulationError(Exception):
    """Base class for errors raised by the simulation engine."""


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
        self.env._schedule(self)
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
        heappush(env._queue, (env._now + delay, counter, self))


class _Relay:
    """Allocation-light heap entry that runs one callback next step.

    Used where the engine used to allocate a bridge :class:`Event`: a
    process starting, or a process (or condition) waiting on an
    *already-processed* target, must run on the next scheduler step, in
    schedule order. A relay carries just the four fields the scheduler
    loop touches and occupies exactly the heap slot the bridge event
    occupied, so ordering is unchanged. It re-delivers the target's
    result; a failure it carries was already surfaced once, so it is
    born defused.
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
        env._counter = counter = env._counter + 1
        heappush(env._queue, (env._now, counter, _Relay(self._resume)))

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
            env._counter = counter = env._counter + 1
            heappush(env._queue, (env._now, counter, self))
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            env._counter = counter = env._counter + 1
            heappush(env._queue, (env._now, counter, self))
            return
        callbacks = getattr(next_target, "callbacks", False)
        if callbacks is False:
            raise SimulationError(
                f"process {self.name!r} yielded {next_target!r}, expected an Event"
            )
        if callbacks is None:
            # Already processed: resume on the next scheduler step.
            relay = _Relay(self._resume, next_target._ok, next_target._value)
            env._counter = counter = env._counter + 1
            heappush(env._queue, (env._now, counter, relay))
        else:
            callbacks.append(self._resume)


class AnyOf(Event):
    """Fires, with no value, as soon as one child event fires.

    Waiters read the child they care about (``get.triggered``), never
    the condition's value. A failed child is not handled here: like any
    unhandled failure it surfaces from :meth:`Environment.run`.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        for event in events:
            if event.callbacks is None:
                # Already processed: deliver on the next scheduler step so
                # ordering stays deterministic.
                env._counter = counter = env._counter + 1
                heappush(env._queue, (env._now, counter, _Relay(self._on_child)))
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, _event) -> None:
        if not self._triggered:
            self.succeed()


class Environment:
    """The simulation clock and scheduler."""

    # The engine and resource internals read/write these fields millions
    # of times per simulated second; __slots__ turns every one of those
    # instance-dict probes into a fixed-offset load.
    __slots__ = ("_now", "_queue", "_counter", "_steps")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = 0
        self._steps = 0

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
        """Events ever pushed onto the schedule (observability counter)."""
        return self._counter

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._counter += 1
        heappush(self._queue, (self._now + delay, self._counter, event))

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
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        time, _tick, event = heappop(self._queue)
        if time < self._now:
            raise SimulationError("scheduler time went backwards")
        self._now = time
        self._steps += 1
        if event.callbacks is None:
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
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
        pop = heappop
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
            while queue and queue[0][0] <= until:
                time, _tick, event = pop(queue)
                if time < self._now:
                    raise SimulationError("scheduler time went backwards")
                self._now = time
                steps += 1
                callbacks = event.callbacks
                if callbacks is None:
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
