"""Waitable resources for simulation processes.

Two primitives cover everything the rest of the library needs:

* :class:`Store` — an unbounded FIFO queue of items; ``get()`` returns an
  event that fires when an item is available. Used for message inboxes.
* :class:`Resource` — a counted resource with FIFO admission (e.g. CPU
  cores, NIC transmit queues). ``request()``/``release()`` or the
  higher-level ``use(duration)``/``request_hold(duration)``.

A queued getter or waiter is triggered only by the ``put()`` or
``release()`` that pops it, so neither queue ever holds a triggered
entry. Hand-offs happen at the current instant and go to the engine's
same-instant lane, with the next schedule counter, as ``succeed()``
does (DESIGN.md D25).

Hot-path design (see docs/PERFORMANCE.md)
-----------------------------------------
``Resource`` is the second-hottest object in the repository after the
scheduler itself: every ``compute()`` and every network serialization
goes through one. Two fast paths keep event churn down without changing
admission order or timing:

* *Uncontended*: when a unit is free, ``use``/``request_hold`` skip the
  request event entirely and schedule only the hold timeout — one schedule
  entry per acquisition.
* *Direct handoff*: when the resource is saturated, the waiter records
  its hold duration up front and admission schedules the waiter's
  *completion* directly — the waiting process resumes once (when its
  hold ends) instead of twice (admission, then timeout). The admission
  bookkeeping is a tiny relay that takes the schedule counter the
  classic request event took and assigns the completion its schedule
  counter at the same moment the classic path would have, so same-time
  tiebreak order — and therefore every simulated result — is
  bit-for-bit identical to the two-resume dance.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from .engine import Environment, Event, Timeout


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the item."""

    __slots__ = ()


class Store:
    """Unbounded FIFO store; the backbone of message passing."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (for inspection in tests)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Add an item; wakes the oldest waiting getter, if any."""
        if self._getters:
            # A queued getter is untriggered: only this pop triggers it.
            getter = self._getters.popleft()
            # Inlined Event.succeed(): the inbox put/get pair runs once
            # per delivered message.
            getter._triggered = True
            getter._value = item
            env = getter.env
            env._counter += 1
            env._lane.append(getter)
            return
        self._items.append(item)

    def get(self) -> StoreGet:
        """Return an event that fires with the next item."""
        env = self.env
        event = StoreGet(env)
        if self._items:
            event._triggered = True
            event._value = self._items.popleft()
            env._counter += 1
            env._lane.append(event)
        else:
            self._getters.append(event)
        return event

    def cancel(self, event: StoreGet) -> None:
        """Withdraw an un-triggered get request (e.g. on timeout)."""
        try:
            self._getters.remove(event)
        except ValueError:
            pass


class _AdmitRelay:
    """Schedule-entry stand-in for the classic admission event.

    Scheduled by :meth:`Resource.release` when it hands a unit to a
    ``request_hold`` waiter. It takes the schedule counter the old
    admission event took, pops where it popped, and only then schedules
    the waiter's completion — so the completion gets the same schedule
    counter the classic request-then-timeout path would have assigned,
    preserving deterministic tiebreak order among same-time events.
    """

    __slots__ = ("callbacks", "_value", "_ok", "_defused", "waiter")

    def __init__(self, waiter: "ResourceRequest"):
        self.callbacks = [self._fire]
        self._value = None
        self._ok = True
        self._defused = True
        self.waiter = waiter

    def _fire(self, _event) -> None:
        waiter = self.waiter
        waiter._triggered = True
        waiter.env._schedule(waiter, delay=waiter.hold)


class ResourceRequest(Event):
    """Event returned by :meth:`Resource.request`; fires on admission.

    When created through :meth:`Resource.request_hold`, ``hold`` carries
    the intended hold duration and the event fires at *admission + hold*
    instead (the releasing side schedules the completion directly).
    """

    __slots__ = ("hold",)

    def __init__(self, env: Environment):
        # Flattened Event.__init__ (no super() chain): requests are
        # allocated on every contended acquisition.
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._defused = False
        self.hold: Optional[float] = None


class Resource:
    """A counted FIFO resource (CPU cores, transmit slots, ...)."""

    __slots__ = ("env", "capacity", "_in_use", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[ResourceRequest] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> ResourceRequest:
        """Return an event that fires when a unit is granted."""
        event = ResourceRequest(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def request_hold(self, duration: float) -> Event:
        """Acquire a unit (FIFO) and hold it for ``duration`` seconds.

        The returned event fires when the *hold completes* — either a
        plain timeout (uncontended) or a handoff-scheduled completion
        (saturated). The caller owns the unit from admission until it
        calls :meth:`release`, exactly as with ``request()`` + timeout,
        but with a single scheduled event either way.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return Timeout(self.env, duration)
        event = ResourceRequest(self.env)
        event.hold = duration
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit; admits the oldest waiter, if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        waiters = self._waiters
        if waiters:
            # A queued waiter is unadmitted: only this pop admits it.
            waiter = waiters.popleft()
            if waiter.hold is None:
                waiter.succeed()
            else:
                # Direct handoff: the unit transfers now; the relay pops
                # where the classic admission event popped and schedules
                # the waiter's completion there (see module docstring).
                env = self.env
                env._counter += 1
                env._lane.append(_AdmitRelay(waiter))
            return
        self._in_use -= 1

    def use(self, duration: float) -> Generator:
        """Process generator: hold one unit for ``duration`` seconds.

        Usage inside a process::

            yield from cpu.use(20e-6)
        """
        # request_hold() inlined: this generator wraps every compute().
        if self._in_use < self.capacity:
            self._in_use += 1
            event = Timeout(self.env, duration)
        else:
            event = ResourceRequest(self.env)
            event.hold = duration
            self._waiters.append(event)
        yield event
        # release() inlined for the common no-waiter case: we provably
        # hold a unit here, so the underflow guard cannot fire.
        if self._waiters:
            self.release()
        else:
            self._in_use -= 1
