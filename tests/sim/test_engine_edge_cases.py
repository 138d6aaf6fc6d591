"""Additional engine edge cases: failed children, failed targets, values."""

import pytest

from repro.sim import Environment, SimulationError


def test_any_of_fails_fast_on_failure():
    """AnyOf does not handle a failed child: the crash surfaces from
    run() when it happens, not when the slow child would have fired."""
    env = Environment()

    def crasher(env):
        yield env.timeout(0.25)
        raise RuntimeError("boom")

    def proc(env):
        yield env.any_of([env.timeout(100.0, "slow"), env.process(crasher(env))])

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=1.0)
    assert env.now == 0.25


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_waiting_on_already_failed_event_raises_at_yield():
    env = Environment()
    caught = []

    def crasher(env):
        raise ValueError("pre-failed")
        yield  # pragma: no cover - makes this a generator

    failed = env.process(crasher(env))
    with pytest.raises(ValueError):
        env.run()  # the failure surfaces once and is processed
    assert failed.processed

    def proc(env):
        try:
            yield failed
        except ValueError:
            caught.append(True)

    env.process(proc(env))
    env.run()
    assert caught == [True]
