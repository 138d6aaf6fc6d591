"""Unit tests for TCP-like in-order stream delivery."""

import pytest

from repro.sim import Environment, Network, NormalLatency, RngTree, UniformLatency


def collect(env, net, name, out, count):
    def recv():
        for _ in range(count):
            msg = yield net.node(name).inbox.get()
            out.append(msg.payload)

    env.process(recv())


def make_jittery_net():
    env = Environment()
    net = Network(env, rng_tree=RngTree(3), default_latency=UniformLatency(0.01, 0.5))
    net.add_node("a")
    net.add_node("b")
    return env, net


def test_same_stream_preserves_send_order_despite_jitter():
    env, net = make_jittery_net()
    out = []
    collect(env, net, "b", out, 50)
    for i in range(50):
        net.send("a", "b", payload=i, size=10, stream="conn-1")
    env.run()
    assert out == list(range(50))


class ScriptedLatency:
    """Latency model returning pre-scripted samples in order."""

    def __init__(self, samples):
        self.samples = list(samples)

    def sample(self, rng):
        return self.samples.pop(0)


def test_distinct_streams_may_overtake_each_other():
    env = Environment()
    net = Network(env, rng_tree=RngTree(3))
    net.add_node("a")
    net.add_node("b")
    # First message (stream X) slow, second (stream Y) fast.
    net.set_latency("a", "b", ScriptedLatency([0.5, 0.001]))
    out = []
    collect(env, net, "b", out, 2)
    net.send("a", "b", payload="x-slow", size=10, stream="X")
    net.send("a", "b", payload="y-fast", size=10, stream="Y")
    env.run()
    assert out == ["y-fast", "x-slow"]


def test_default_stream_is_per_pair():
    env, net = make_jittery_net()
    out = []
    collect(env, net, "b", out, 30)
    for i in range(30):
        net.send("a", "b", payload=i, size=10)  # stream=None
    env.run()
    assert out == list(range(30))


def test_head_of_line_blocking_delays_fast_successor():
    env = Environment()
    net = Network(env, rng_tree=RngTree(3))
    net.add_node("a")
    net.add_node("b")
    times = []

    def recv():
        for _ in range(2):
            msg = yield net.node("b").inbox.get()
            times.append((msg.payload, env.now))

    env.process(recv())
    net.set_latency("a", "b", ScriptedLatency([0.4, 0.001]))
    net.send("a", "b", payload="first", size=10, stream="S")
    net.send("a", "b", payload="second", size=10, stream="S")
    env.run()
    # "second" physically arrived early but was held for "first".
    assert [p for p, _t in times] == ["first", "second"]
    assert times[1][1] >= times[0][1]
    assert times[0][1] >= 0.4
