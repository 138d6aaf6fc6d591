"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2.5]


def test_sequential_timeouts_accumulate():
    env = Environment()
    marks = []

    def proc(env):
        yield env.timeout(1.0)
        marks.append(env.now)
        yield env.timeout(2.0)
        marks.append(env.now)

    env.process(proc(env))
    env.run()
    assert marks == [1.0, 3.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100.0)

    env.process(proc(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_in_past_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == [42]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return "done"

    def parent(env, child_proc):
        yield env.timeout(5.0)
        value = yield child_proc
        results.append((env.now, value))

    child_proc = env.process(child(env))
    env.process(parent(env, child_proc))
    env.run()
    assert results == [(5.0, "done")]


def test_event_succeed_wakes_waiter():
    env = Environment()
    seen = []

    def waiter(env, ev):
        value = yield ev
        seen.append((env.now, value))

    def firer(env, ev):
        yield env.timeout(3.0)
        ev.succeed("payload")

    ev = env.event()
    env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert seen == [(3.0, "payload")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_crashing_process_surfaces_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("process crashed")

    env.process(bad(env))
    with pytest.raises(ValueError, match="process crashed"):
        env.run()


def test_crash_propagates_to_waiting_parent():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["inner"]


def test_any_of_fires_on_first_event():
    env = Environment()
    seen = []

    def proc(env):
        slow, fast = env.timeout(5.0, "slow"), env.timeout(1.0, "fast")
        value = yield env.any_of([slow, fast])
        seen.append((env.now, value, fast.processed, slow.processed))

    env.process(proc(env))
    env.run()
    assert seen == [(1.0, None, True, False)]


def test_yielding_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="expected an Event"):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()

    def proc(env):
        yield env.timeout(7.0)

    env.process(proc(env))
    env.step()  # initialization
    assert env.peek() == 7.0


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_many_processes_are_deterministic():
    def simulate():
        env = Environment()
        order = []

        def worker(env, i):
            yield env.timeout((i * 7) % 5 + 0.1)
            order.append(i)
            yield env.timeout((i * 3) % 4 + 0.1)
            order.append(-i)

        for i in range(50):
            env.process(worker(env, i))
        env.run()
        return order

    assert simulate() == simulate()
