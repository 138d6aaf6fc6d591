"""Unit tests for the simulated network."""

import pytest

from repro.sim import (
    ConstantLatency,
    Environment,
    Network,
    NicConfig,
    NormalLatency,
    RngTree,
    UniformLatency,
)


def make_net(latency=None, nic=None):
    env = Environment()
    net = Network(env, rng_tree=RngTree(7), default_latency=latency or ConstantLatency(0.001))
    net.add_node("a", nic=nic)
    net.add_node("b", nic=nic)
    return env, net


def receive_one(env, net, name, out):
    msg = yield net.node(name).inbox.get()
    out.append((env.now, msg))


def test_basic_delivery():
    env, net = make_net()
    out = []
    env.process(receive_one(env, net, "b", out))
    net.send("a", "b", payload="hi", size=100)
    env.run()
    assert len(out) == 1
    time, msg = out[0]
    assert msg.payload == "hi"
    assert msg.src == "a"
    assert msg.dst == "b"
    # serialization twice + 1 ms propagation
    assert time == pytest.approx(0.001 + 2 * 100 / net.node("a").nic.bandwidth)


def test_payload_wire_size_attribute_used():
    env, net = make_net()

    class Sized:
        wire_size = 64

    out = []
    env.process(receive_one(env, net, "b", out))
    net.send("a", "b", payload=Sized())
    env.run()
    assert out[0][1].size == 64


def test_missing_size_rejected():
    env, net = make_net()
    with pytest.raises(ValueError):
        net.send("a", "b", payload=object())


def test_unknown_endpoint_rejected():
    env, net = make_net()
    with pytest.raises(KeyError):
        net.send("a", "zzz", payload="x", size=1)


def test_duplicate_node_rejected():
    env, net = make_net()
    with pytest.raises(ValueError):
        net.add_node("a")


def test_bandwidth_serializes_large_transfers():
    env, net = make_net(nic=NicConfig(count=1, bandwidth=1000.0))
    out = []

    def recv_two(env, net, out):
        for _ in range(2):
            msg = yield net.node("b").inbox.get()
            out.append(env.now)

    env.process(recv_two(env, net, out))
    net.send("a", "b", payload="m1", size=1000)  # 1 s serialization each side
    net.send("a", "b", payload="m2", size=1000)
    env.run()
    # Second message has to wait for the first on both NICs.
    assert out[0] < out[1]
    assert out[1] - out[0] >= 1.0


def test_multiple_nics_allow_parallel_transfers():
    env, net = make_net(nic=NicConfig(count=2, bandwidth=1000.0))
    out = []

    def recv_two(env, net, out):
        for _ in range(2):
            yield net.node("b").inbox.get()
            out.append(env.now)

    env.process(recv_two(env, net, out))
    net.send("a", "b", payload="m1", size=1000)
    net.send("a", "b", payload="m2", size=1000)
    env.run()
    assert out[1] - out[0] < 0.5


def test_partition_drops_messages():
    env, net = make_net()
    out = []
    env.process(receive_one(env, net, "b", out))
    cut = {("a", "b")}
    net.add_send_filter(
        lambda attempt: setattr(attempt, "drop", (attempt.src, attempt.dst) in cut)
    )
    net.send("a", "b", payload="lost", size=10)
    env.run(until=10.0)
    assert out == []
    cut.clear()
    net.send("a", "b", payload="found", size=10)
    env.run(until=20.0)
    assert len(out) == 1


def test_crashed_receiver_drops_messages():
    env, net = make_net()
    out = []
    env.process(receive_one(env, net, "b", out))
    net.node("b").crash()
    net.send("a", "b", payload="x", size=10)
    env.run(until=10.0)
    assert out == []


def test_crashed_sender_sends_nothing():
    env, net = make_net()
    out = []
    env.process(receive_one(env, net, "b", out))
    net.node("a").crash()
    net.send("a", "b", payload="x", size=10)
    env.run(until=10.0)
    assert out == []


def test_loss_probability_drops_fraction():
    env, net = make_net()
    rng = RngTree(7).derive("loss")
    net.add_send_filter(lambda attempt: setattr(attempt, "drop", rng.random() < 0.5))
    received = []

    def recv_all(env, net):
        while True:
            yield net.node("b").inbox.get()
            received.append(env.now)

    env.process(recv_all(env, net))
    for i in range(200):
        net.send("a", "b", payload=i, size=10)
    env.run(until=100.0)
    assert 50 < len(received) < 150


def test_latency_override_per_direction():
    env, net = make_net(latency=ConstantLatency(0.001))
    net.set_latency("a", "b", ConstantLatency(0.5))
    out = []
    env.process(receive_one(env, net, "b", out))
    net.send("a", "b", payload="x", size=8)
    env.run()
    assert out[0][0] >= 0.5


def test_normal_latency_is_clamped_and_seeded():
    rng = RngTree(3).derive("x")
    model = NormalLatency(0.1, 0.02)
    samples = [model.sample(rng) for _ in range(1000)]
    assert all(s > 0 for s in samples)
    mean = sum(samples) / len(samples)
    assert 0.09 < mean < 0.11


def test_uniform_latency_bounds():
    rng = RngTree(3).derive("y")
    model = UniformLatency(0.01, 0.02)
    samples = [model.sample(rng) for _ in range(100)]
    assert all(0.01 <= s <= 0.02 for s in samples)
    with pytest.raises(ValueError):
        UniformLatency(0.5, 0.1)


def test_constant_latency_validation():
    with pytest.raises(ValueError):
        ConstantLatency(-1.0)


def test_network_counters():
    env, net = make_net()
    out = []
    env.process(receive_one(env, net, "b", out))
    net.send("a", "b", payload="x", size=123)
    env.run()
    assert net.messages_sent == 1
    assert net.bytes_sent == 123


def test_deterministic_delivery_times():
    def simulate():
        env, net = make_net(latency=NormalLatency(0.1, 0.02))
        times = []

        def recv(env, net):
            for _ in range(20):
                yield net.node("b").inbox.get()
                times.append(env.now)

        env.process(recv(env, net))
        for i in range(20):
            net.send("a", "b", payload=i, size=100)
        env.run()
        return times

    assert simulate() == simulate()
