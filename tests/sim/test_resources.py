"""Unit tests for Store and Resource."""

import pytest

from repro.sim import Environment, Resource, Store


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    seen = []

    def getter(env, store):
        item = yield store.get()
        seen.append((env.now, item))

    store.put("x")
    env.process(getter(env, store))
    env.run()
    assert seen == [(0.0, "x")]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    seen = []

    def getter(env, store):
        item = yield store.get()
        seen.append((env.now, item))

    def putter(env, store):
        yield env.timeout(4.0)
        store.put("late")

    env.process(getter(env, store))
    env.process(putter(env, store))
    env.run()
    assert seen == [(4.0, "late")]


def test_store_is_fifo_for_items_and_getters():
    env = Environment()
    store = Store(env)
    seen = []

    def getter(env, store, tag):
        item = yield store.get()
        seen.append((tag, item))

    env.process(getter(env, store, "g1"))
    env.process(getter(env, store, "g2"))

    def putter(env, store):
        yield env.timeout(1.0)
        store.put("first")
        store.put("second")

    env.process(putter(env, store))
    env.run()
    assert seen == [("g1", "first"), ("g2", "second")]


def test_store_len_and_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == (1, 2)


def test_store_cancel_withdraws_getter():
    env = Environment()
    store = Store(env)
    delivered = []

    def impatient(env, store):
        get_event = store.get()
        yield env.any_of([get_event, env.timeout(1.0)])
        if not get_event.triggered:
            store.cancel(get_event)
            delivered.append("timeout")

    def patient(env, store):
        item = yield store.get()
        delivered.append(item)

    env.process(impatient(env, store))

    def putter(env, store):
        yield env.timeout(2.0)
        env.process(patient(env, store))
        yield env.timeout(0.1)
        store.put("value")

    env.process(putter(env, store))
    env.run()
    assert delivered == ["timeout", "value"]


def test_resource_capacity_enforced():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def worker(env, resource, tag):
        yield resource.request()
        log.append((env.now, tag, "in"))
        yield env.timeout(10.0)
        resource.release()
        log.append((env.now, tag, "out"))

    for tag in ("a", "b", "c"):
        env.process(worker(env, resource, tag))
    env.run()
    in_times = {tag: t for t, tag, what in log if what == "in"}
    assert in_times["a"] == 0.0
    assert in_times["b"] == 0.0
    assert in_times["c"] == 10.0


def test_resource_use_helper_releases():
    env = Environment()
    resource = Resource(env, capacity=1)
    done = []

    def worker(env, resource, tag):
        yield from resource.use(5.0)
        done.append((env.now, tag))

    env.process(worker(env, resource, "a"))
    env.process(worker(env, resource, "b"))
    env.run()
    assert done == [(5.0, "a"), (10.0, "b")]
    assert resource.in_use == 0


def test_resource_release_without_request_raises():
    env = Environment()
    resource = Resource(env, capacity=1)
    with pytest.raises(RuntimeError):
        resource.release()


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_queue_length():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(env, resource):
        yield from resource.use(100.0)

    def waiter(env, resource):
        yield from resource.use(1.0)

    env.process(holder(env, resource))
    env.process(waiter(env, resource))
    env.run(until=1.0)
    assert resource.in_use == 1
    assert resource.queue_length == 1
