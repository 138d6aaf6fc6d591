"""Edge semantics the hot-path rewrite must preserve.

The scheduler, relay objects, and resource fast paths (see
docs/PERFORMANCE.md) all promise "same events, same order, same
results" as the naive implementation. These tests pin the corners
where that promise is easiest to break: already-processed targets,
saturated resources, and the deterministic ``env.steps`` /
``env.scheduled_events`` counters.
"""

import random

from repro.sim import Environment
from repro.sim.resources import Resource


# -- already-processed targets ------------------------------------------------


def _processed_event(env, value=None):
    """An event that has been triggered *and* processed."""
    ev = env.event()
    ev.succeed(value)
    env.run()
    assert ev.processed
    return ev


def test_any_of_over_preprocessed_children():
    """AnyOf where every child already fired: succeeds on the next step,
    at the current time."""
    env = Environment()
    a = _processed_event(env, "a")
    b = _processed_event(env, "b")
    seen = []

    def proc(env):
        result = yield env.any_of([a, b])
        seen.append((env.now, result))

    env.process(proc(env))
    env.run()
    assert seen == [(0.0, None)]


# -- run() / step() equivalence ----------------------------------------------


def _churn_workload(env, log, seed):
    """A deterministic mix of timeouts, resource contention and
    conditions, exercising every scheduler branch."""
    rng = random.Random(seed)
    cpu = Resource(env, capacity=2)

    def worker(env, wid):
        for i in range(6):
            choice = rng.random()
            if choice < 0.5:
                yield from cpu.use(rng.uniform(0.001, 0.01))
            elif choice < 0.8:
                yield env.timeout(rng.uniform(0.001, 0.02))
            else:
                yield env.any_of(
                    [env.timeout(0.005, "fast"), env.timeout(0.5, "slow")]
                )
            log.append((wid, i, round(env.now, 9)))

    return [env.process(worker(env, w)) for w in range(5)]


def test_run_matches_repeated_step():
    """The inlined run() loop and the reference step() loop must agree on
    the trace, the clock, and both observability counters."""
    results = []
    for driver in ("run", "step"):
        env = Environment()
        log = []
        _churn_workload(env, log, seed=99)
        if driver == "run":
            env.run()
        else:
            while env.peek() != float("inf"):
                env.step()
        results.append((log, env.now, env.steps, env.scheduled_events))
    assert results[0] == results[1]


#: The seed-7 churn workload as the engine with a ``(time, priority,
#: counter, entry)`` heap key ran it. The key lost its priority field,
#: which every entry carried with the same value; the pin shows the
#: order of heap entries did not move.
CHURN_SEED_7 = (54, 54, 0.5352208233687642)
CHURN_SEED_7_LOG = [
    (0, 0, 0.002357643), (1, 0, 0.002376289), (3, 0, 0.005566922),
    (4, 0, 0.007260454), (0, 1, 0.007383339), (2, 0, 0.007948089),
    (3, 1, 0.010392489), (2, 1, 0.012948089), (1, 1, 0.015702123),
    (0, 2, 0.015920268), (2, 2, 0.018000419), (3, 2, 0.019118706),
    (0, 3, 0.020920268), (1, 2, 0.021776755), (0, 4, 0.023113258),
    (1, 3, 0.024630383), (2, 3, 0.025353107), (4, 1, 0.026266924),
    (3, 3, 0.027194259), (2, 4, 0.02905101), (1, 4, 0.03090044),
    (0, 5, 0.032237512), (3, 4, 0.035220823), (1, 5, 0.037371258),
    (3, 5, 0.040220823), (4, 2, 0.040547818), (4, 3, 0.045310923),
    (2, 5, 0.046678622), (4, 4, 0.049198629), (4, 5, 0.050551495),
]


def test_same_seed_same_steps_and_scheduled_events():
    """Byte-identical schedules: the step and scheduled-event counters —
    the quantities the perf-smoke CI budgets gate on — are functions of
    the seed alone, and equal the recorded ones."""
    for _ in range(3):
        env = Environment()
        log = []
        _churn_workload(env, log, seed=7)
        env.run()
        assert (env.steps, env.scheduled_events, env.now) == CHURN_SEED_7
        assert log == CHURN_SEED_7_LOG


def test_gc_reenabled_after_run():
    """run() pauses the cycle collector for the hot loop; it must restore
    it even when a process crashes mid-run."""
    import gc

    env = Environment()

    def crasher(env):
        yield env.timeout(0.1)
        raise RuntimeError("boom")

    env.process(crasher(env))
    assert gc.isenabled()
    try:
        env.run()
    except RuntimeError:
        pass
    assert gc.isenabled()


# -- resource fast-path semantics --------------------------------------------


def test_saturated_resource_hands_off_in_fifo_order():
    """Under saturation the direct-handoff path must admit strictly in
    arrival order and charge each holder its own duration back-to-back."""
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []

    def job(env, name, duration):
        yield from cpu.use(duration)
        log.append((name, round(env.now, 9)))

    for name, duration in (("a", 0.3), ("b", 0.1), ("c", 0.2)):
        env.process(job(env, name, duration))
    env.run()
    assert log == [("a", 0.3), ("b", 0.4), ("c", 0.6)]


