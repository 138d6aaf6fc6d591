"""Unit tests for ClientMachine routing and BftClient demux."""

import pytest

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_baseline
from repro.hybster.client import ClientMachine
from repro.hybster.messages import Reply
from repro.hybster.secure import seal_body
from repro.crypto import establish_session
from repro.sim import Environment, Network, RngTree


def test_machine_routes_by_client_id():
    env = Environment()
    net = Network(env, rng_tree=RngTree(1))
    node = net.add_node("m")
    machine = ClientMachine(env, net, node)
    inbox_a = machine.register("client-a")
    inbox_b = machine.register("client-b")

    session = establish_session(b"master-secret-00", "client-a", "server")
    reply = Reply("server", "client-a", 1, Payload(b"r"), b"\x00" * 32)
    envelope = seal_body(session.server, reply)

    class Msg:
        payload = envelope

    machine.deliver(Msg())
    assert len(inbox_a) == 1
    assert len(inbox_b) == 0


def test_machine_drops_unknown_clients_and_noise():
    env = Environment()
    net = Network(env, rng_tree=RngTree(1))
    machine = ClientMachine(env, net, net.add_node("m"))

    class Noise:
        payload = "not an envelope"

    machine.deliver(Noise())  # must not raise

    session = establish_session(b"master-secret-00", "ghost", "server")
    reply = Reply("server", "ghost", 1, Payload(b"r"), b"\x00" * 32)

    class Msg:
        payload = seal_body(session.server, reply)

    machine.deliver(Msg())  # unknown client: silently dropped


def test_concurrent_invocations_on_one_bft_client():
    """The library demultiplexes replies: two overlapping invocations on
    the same client instance both complete correctly (the Prophecy
    middlebox drives the library this way)."""
    cluster = build_baseline(seed=161, app_factory=KvStore)
    client = cluster.new_client(read_optimization=False)
    results = {}

    def driver(tag, op):
        outcome = yield from client.invoke(op)
        results[tag] = outcome.result.content

    cluster.env.process(driver("w1", put("a", b"1")))
    cluster.env.process(driver("w2", put("b", b"2")))
    cluster.env.run(until=20.0)

    def reader():
        outcome = yield from client.invoke(get("a"))
        results["ra"] = outcome.result.content
        outcome = yield from client.invoke(get("b"))
        results["rb"] = outcome.result.content

    cluster.env.process(reader())
    cluster.env.run(until=cluster.env.now + 20.0)
    assert results == {"w1": b"stored", "w2": b"stored", "ra": b"1", "rb": b"2"}


def test_many_concurrent_invocations_all_complete():
    cluster = build_baseline(seed=162, app_factory=KvStore)
    client = cluster.new_client(read_optimization=False)
    done = []

    def driver(i):
        outcome = yield from client.invoke(put(f"k{i}", b"v"))
        done.append(outcome.result.content)

    for i in range(12):
        cluster.env.process(driver(i))
    cluster.env.run(until=30.0)
    assert done == [b"stored"] * 12
    assert client.stats.retransmissions == 0
