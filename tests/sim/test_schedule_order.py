"""The two-part schedule runs events in the order a single heap runs them.

The engine sends an entry for the current instant to a FIFO lane and
every later entry to a heap (DESIGN.md D25). ``SingleHeap`` below is
the reference: the same event classes, but every entry, same-instant or
not, goes on one ``(time, counter, entry)`` heap, and the loop is the
plain pop-and-run loop. Random programs mix zero-delay wake-ups
(process starts and completions, ``succeed()``, ``Store`` hand-offs,
``Resource`` admissions, already-processed targets), positive delays,
delays that round to the current instant, same-time ties on exact
binary fractions, ``any_of`` races won by either side, and
``run(until=...)`` boundaries. Both schedulers must resume the same
processes in the same order at the same times, with the same ``steps``,
``scheduled_events``, clock and ``peek()``. The programs withdraw far
fewer timers than it takes to rebuild the heap, so every withdrawn
timer still pops as a step and ``steps`` must agree too.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.resources import Resource, Store

_INF = float("inf")


class _HeapLane:
    """Pushes a same-instant entry onto the heap, as one-heap engines do."""

    __slots__ = ("env",)

    def __init__(self, env):
        self.env = env

    def append(self, entry):
        env = self.env
        heappush(env._queue, (env._now, env._counter, entry))


class SingleHeap(Environment):
    """The reference scheduler: one heap, one pop per step."""

    __slots__ = ()

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        self._lane = _HeapLane(self)

    def _compact(self):
        """Every entry stays on the heap and pops, withdrawn or not."""

    def step(self):
        self._now, _tick, event = heappop(self._queue)
        self._steps += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def peek(self):
        return self._queue[0][0] if self._queue else _INF

    def run(self, until=None):
        horizon = _INF if until is None else until
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        if until is not None:
            self._now = until


# -- random programs ------------------------------------------------------------

#: 1e-17 rounds to no delay once the clock is past about 0.1.
DELAYS = st.one_of(
    st.sampled_from([0.0, 1e-17, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
ACTIONS = st.one_of(
    st.tuples(st.just("wait"), DELAYS),
    st.tuples(st.just("race"), DELAYS, DELAYS),
    st.tuples(st.just("get"), DELAYS),
    st.tuples(st.just("put")),
    st.tuples(st.just("use"), DELAYS),
    st.tuples(st.just("spawn"), DELAYS),
    st.tuples(st.just("succeed")),
    st.tuples(st.just("stale")),
)
PROGRAMS = st.lists(st.lists(ACTIONS, max_size=8), min_size=1, max_size=6)
BOUNDARIES = st.lists(
    st.one_of(st.sampled_from([1.0, 1.25, 1.5, 2.0]), st.floats(1.0, 6.0)),
    max_size=4,
).map(sorted)


def launch(env, program, log):
    """Start one process per script; each logs (pid, action, now, result)."""
    store, cpu = Store(env), Resource(env, capacity=1)
    done = env.event()
    done.succeed("stale")

    def child(delay):
        yield env.timeout(delay)
        return delay

    def script(pid, actions):
        for index, action in enumerate(actions):
            kind, result = action[0], None
            if kind == "wait":
                result = yield env.timeout(action[1], index)
            elif kind == "race":
                first, second = env.timeout(action[1], "a"), env.timeout(action[2], "b")
                yield env.any_of([first, second])
                # The loser is never processed here; the reference may pop
                # it before this resume, so only the winner is compared.
                result = "a" if first.processed else "b"
            elif kind == "get":
                get = store.get()
                yield env.any_of([get, env.timeout(action[1])])
                if get.triggered:
                    result = get.value
                else:
                    store.cancel(get)
            elif kind == "put":
                store.put((pid, index))
            elif kind == "use":
                yield from cpu.use(action[1])
            elif kind == "spawn":
                result = yield env.process(child(action[1]))
            elif kind == "succeed":
                event = env.event()
                event.succeed(index)
                result = yield event
            else:
                result = yield done
            log.append((pid, index, env.now, result))

    for pid, actions in enumerate(program):
        env.process(script(pid, actions))


def observe(env):
    return env.steps, env.scheduled_events, env.now, env.peek()


def drive(env, boundaries, stepwise):
    """Run to each boundary, then to the end; observe at every stop."""
    seen = []
    for until in boundaries + [None]:
        if stepwise:
            horizon = _INF if until is None else until
            while env.peek() != _INF and env.peek() <= horizon:
                env.step()
        if until is not None:
            env.run(until=until)
        elif not stepwise:
            env.run()
        seen.append(observe(env))
    return seen


def execute(make_env, program, boundaries, stepwise):
    env = make_env(1.0)
    log = []
    launch(env, program, log)
    seen = drive(env, boundaries, stepwise)
    return log, seen


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS, boundaries=BOUNDARIES)
def test_lane_and_heap_run_events_in_single_heap_order(program, boundaries):
    reference = execute(SingleHeap, program, boundaries, stepwise=False)
    assert execute(Environment, program, boundaries, stepwise=False) == reference
    assert execute(Environment, program, boundaries, stepwise=True) == reference
    assert execute(SingleHeap, program, boundaries, stepwise=True) == reference


def test_fixed_program_with_ties_rounding_and_boundaries():
    """The property's corners without Hypothesis: a tie on an exact
    fraction, a delay that rounds to no delay and a run(until) stop on an
    event time, each agreeing with the reference."""
    program = [
        [("wait", 0.25), ("wait", 1e-17), ("race", 0.5, 0.25), ("put",)],
        [("wait", 0.25), ("get", 1.0), ("spawn", 0.0), ("succeed",), ("stale",)],
        [("use", 0.5), ("use", 0.0), ("race", 0.25, 0.25)],
        [("use", 0.5), ("get", 0.125), ("wait", 1e-17)],
    ]
    boundaries = [1.25, 1.5, 2.0]
    reference = execute(SingleHeap, program, boundaries, stepwise=False)
    log, _seen = reference
    assert any(now == 1.25 for _pid, _i, now, _r in log)
    assert execute(Environment, program, boundaries, stepwise=False) == reference
    assert execute(Environment, program, boundaries, stepwise=True) == reference
