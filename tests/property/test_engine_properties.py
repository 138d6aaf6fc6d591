"""Property-based tests for the simulation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30
)


@given(delays)
@settings(max_examples=50, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delay_list):
    env = Environment()
    fired = []

    def proc(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delay_list:
        env.process(proc(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delay_list)


@given(delays)
@settings(max_examples=30, deadline=None)
def test_identical_schedules_are_deterministic(delay_list):
    def simulate():
        env = Environment()
        order = []

        def proc(env, i, delay):
            yield env.timeout(delay)
            order.append(i)

        for i, delay in enumerate(delay_list):
            env.process(proc(env, i, delay))
        env.run()
        return order

    assert simulate() == simulate()


@given(delays, st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_run_until_never_overshoots(delay_list, horizon):
    env = Environment()

    def proc(env, delay):
        yield env.timeout(delay)

    for delay in delay_list:
        env.process(proc(env, delay))
    env.run(until=horizon)
    assert env.now == horizon


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_chained_timeouts_accumulate_exactly(steps):
    env = Environment()
    finished = []

    def proc(env):
        for step in steps:
            yield env.timeout(float(step))
        finished.append(env.now)

    env.process(proc(env))
    env.run()
    assert finished == [float(sum(steps))]
