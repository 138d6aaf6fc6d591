"""A fired any_of withdraws the timers that lost it (DESIGN.md D25).

A losing timer is an un-fired ``Timeout`` child whose only callback is
the condition. It reads ``triggered`` and not ``processed``, never runs
a callback, and waiting on it raises. The heap is rebuilt without
withdrawn timers once they are more than half of it (and at least
``_COMPACT_MIN``); until then each pops as a step that runs nothing.
"""

import random

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.engine import _COMPACT_MIN

from .test_schedule_order import SingleHeap


def race(env, winner_delay, loser_delay):
    """Start a process that races two timers; returns (winner, loser)."""
    winner, loser = env.timeout(winner_delay, "w"), env.timeout(loser_delay, "l")

    def proc(env):
        yield env.any_of([winner, loser])

    env.process(proc(env))
    return winner, loser


def test_losing_timer_reads_triggered_and_not_processed():
    env = Environment()
    winner, loser = race(env, 1.0, 5.0)
    env.run(until=2.0)
    assert winner.processed
    assert loser.triggered and not loser.processed
    env.run()
    # It popped as a step at 5.0 (the heap was never rebuilt), and still
    # ran nothing.
    assert (env.now, env.steps) == (5.0, 5)
    assert loser.triggered and not loser.processed


def test_losing_timer_never_runs_a_callback():
    env = Environment()
    fired = []
    a, b = env.timeout(1.0), env.timeout(2.0)

    def proc(env):
        yield env.any_of([a, b])
        fired.append(env.now)

    env.process(proc(env))
    env.run()
    # The condition's callback ran once, for the winner; the loser's
    # pop at 2.0 resumed nobody.
    assert fired == [1.0]
    assert not b.processed


@pytest.mark.parametrize("when", [0.5, 3.0])
def test_waiting_on_a_withdrawn_timer_raises(when):
    """Before or after its time, a withdrawn timer neither hangs the
    waiter nor resumes it: the yield raises."""
    env = Environment()
    _winner, loser = race(env, 0.25, 2.0)
    env.run(until=when)

    def late(env):
        yield loser

    env.process(late(env))
    with pytest.raises(SimulationError, match="withdrawn"):
        env.run()


def test_any_of_over_a_withdrawn_timer_raises():
    env = Environment()
    _winner, loser = race(env, 0.25, 2.0)
    env.run(until=1.0)
    with pytest.raises(SimulationError, match="withdrawn"):
        env.any_of([loser, env.timeout(1.0)])


def test_shared_timers_and_other_events_are_not_withdrawn():
    """Only a timer whose one callback is the condition lost the race: a
    timer someone else also waits on, one in two conditions, and a
    non-timer child all keep their callbacks and fire."""
    env = Environment()
    shared, doubled, plain = env.timeout(2.0), env.timeout(3.0), env.event()
    seen = []

    def racer(env):
        yield env.any_of([env.timeout(1.0), shared, doubled, plain])
        seen.append(("race", env.now))

    def other(env):
        yield env.any_of([doubled, env.timeout(9.0)])
        seen.append(("doubled", env.now))

    def waiter(env):
        yield shared
        seen.append(("shared", env.now))

    for proc in (racer, other, waiter):
        env.process(proc(env))
    env.run()
    assert seen == [("race", 1.0), ("shared", 2.0), ("doubled", 3.0)]
    assert shared.processed and doubled.processed
    assert not plain.triggered and plain.callbacks


def test_heap_is_rebuilt_once_withdrawn_timers_are_half_of_it():
    env = Environment()
    losers = [race(env, 1.0, 100.0 + i)[1] for i in range(_COMPACT_MIN)]
    keep = env.timeout(50.0)
    assert len(env._queue) == 2 * _COMPACT_MIN + 1
    env.run(until=2.0)
    # All losers withdrawn; the rebuild fired when they passed half the
    # heap, so the live timer is what is left.
    assert [entry[2] for entry in env._queue] == [keep]
    assert env._withdrawn == 0
    assert all(loser.triggered and not loser.processed for loser in losers)
    steps = env.steps
    env.run()
    # The compacted losers cost no step and the clock stops at the last
    # live event.
    assert (env.steps - steps, env.now) == (1, 50.0)


def test_small_heaps_are_not_rebuilt():
    env = Environment()
    for i in range(_COMPACT_MIN - 1):
        race(env, 1.0, 100.0 + i)
    env.run(until=2.0)
    assert env._withdrawn == len(env._queue) == _COMPACT_MIN - 1
    env.run()
    assert env._withdrawn == 0 and env.now == 100.0 + _COMPACT_MIN - 2


def test_rebuilt_heap_keeps_the_order_of_a_single_heap():
    """Rebuilds drop only withdrawn timers: with hundreds of races won
    and lost at random times, every process resumes when and in the
    order the single-heap reference resumes it, and the steps saved are
    withdrawn timers that reference popped and ran nothing for."""
    def program(env, log):
        rng = random.Random(5)

        def racer(pid):
            for _ in range(4):
                fast, slow = rng.choice([0.25, rng.random()]), 50 + rng.random()
                first, second = env.timeout(fast), env.timeout(slow)
                if rng.random() < 0.5:
                    first, second = second, first
                yield env.any_of([first, second])
                log.append((pid, env.now))

        for pid in range(3 * _COMPACT_MIN):
            env.process(racer(pid))

    runs = []
    for make_env in (SingleHeap, Environment):
        env, log = make_env(), []
        program(env, log)
        env.run(until=200.0)
        runs.append((log, env.scheduled_events, env.now, env.steps))
    (ref_log, ref_events, ref_now, ref_steps), (log, events, now, steps) = runs
    assert (log, events, now) == (ref_log, ref_events, ref_now)
    assert len(log) == 4 * 3 * _COMPACT_MIN
    # Every loser was withdrawn; the rebuilt-away ones cost no step.
    assert 0 < ref_steps - steps <= 4 * 3 * _COMPACT_MIN
