"""Unit tests for the legacy client against a scripted stub server."""

import pytest

from repro.analysis.metrics import Collector
from repro.apps.base import Operation, OpKind, Payload
from repro.crypto import KeyRing, establish_session
from repro.hybster.client import ClientMachine
from repro.hybster.messages import Reply, Request
from repro.hybster.secure import SecureEnvelope, open_body, seal_body
from repro.sim import Environment, Network, RngTree
from repro.sim.engine import _COMPACT_MIN
from repro.workloads.legacy import LegacyClient
from repro.workloads.loadgen import ClosedLoop


class StubServer:
    """Minimal contact point implementing the TroxyHost duck type."""

    def __init__(self, env, net, node, keyring, behaviour="echo"):
        self.env = env
        self.net = net
        self.node = node
        self.keyring = keyring
        self.behaviour = behaviour
        self.requests_seen = 0
        self._sessions = {}
        env.process(self._loop())

    @property
    def replica_id(self):
        return self.node.name

    def install_client_session(self, client_id, endpoint):
        self._sessions[client_id] = endpoint
        return
        yield

    def _loop(self):
        while True:
            msg = yield self.node.inbox.get()
            payload = msg.payload
            if not isinstance(payload, SecureEnvelope):
                continue
            request = payload.body
            endpoint = self._sessions.get(request.client_id)
            if endpoint is None:
                continue
            open_body(endpoint, payload)
            self.requests_seen += 1
            if self.behaviour == "silent":
                continue
            reply = Reply(
                self.node.name, request.client_id, request.request_id,
                Payload(b"echo:" + request.op.key.encode()), request.digest(),
            )
            self.net.send(self.node.name, msg.src, seal_body(endpoint, reply))


@pytest.fixture
def world():
    env = Environment()
    net = Network(env, rng_tree=RngTree(2))
    keyring = KeyRing(b"master-secret-00")
    servers = []
    for i in range(2):
        node = net.add_node(f"server-{i}")
        servers.append(StubServer(env, net, node, keyring))
    machine = ClientMachine(env, net, net.add_node("client-machine-0"))
    return env, net, keyring, servers, machine


def make_client(world, **kwargs):
    env, net, keyring, servers, machine = world
    client = LegacyClient(machine, "client-1", keyring, servers, **kwargs)
    return client


def op(key="k"):
    return Operation(OpKind.READ, "get", key)


def test_invoke_before_connect_rejected(world):
    env = world[0]
    client = make_client(world)
    with pytest.raises(RuntimeError):
        next(client.invoke(op()))


def test_connect_instant_and_invoke(world):
    env = world[0]
    client = make_client(world)
    client.connect_instant()
    results = []

    def driver():
        outcome = yield from client.invoke(op("alpha"))
        results.append(outcome.result.content)

    env.process(driver())
    env.run(until=5.0)
    assert results == [b"echo:alpha"]


def test_connect_with_handshake_costs_time(world):
    env = world[0]
    client = make_client(world)

    def driver():
        yield from client.connect()
        outcome = yield from client.invoke(op("x"))
        assert outcome.result.content == b"echo:x"

    env.process(driver())
    env.run(until=5.0)
    assert client._endpoint is not None


def test_timeout_triggers_failover_to_next_server(world):
    env, net, keyring, servers, machine = world
    servers[0].behaviour = "silent"
    client = make_client(world, request_timeout=0.5)
    client.connect_instant()
    results = []

    def driver():
        outcome = yield from client.invoke(op("y"))
        results.append((outcome.result.content, outcome.retries))

    env.process(driver())
    env.run(until=10.0)
    assert results == [(b"echo:y", 1)]
    assert client.stats.failovers == 1
    assert client.contact is servers[1]


def test_stale_reply_for_old_request_id_is_ignored(world):
    env, net, keyring, servers, machine = world
    client = make_client(world)
    client.connect_instant()
    # Inject a stale reply sealed on the real session before invoking.
    server = servers[0]
    results = []

    def driver():
        # Warm up one real request so the session seq advances.
        outcome = yield from client.invoke(op("first"))
        results.append(outcome.result.content)
        outcome = yield from client.invoke(op("second"))
        results.append(outcome.result.content)

    env.process(driver())
    env.run(until=5.0)
    assert results == [b"echo:first", b"echo:second"]
    assert client.stats.invalid_replies == 0


def test_client_counts_invalid_replies_on_garbage(world):
    env, net, keyring, servers, machine = world
    client = make_client(world, request_timeout=0.5)
    client.connect_instant()

    # A forged envelope not sealed under the session key.
    evil = establish_session(b"attacker-secret!", "client-1", "server-0")
    request = Request("client-1", 99, op(), origin="client-machine-0")
    fake_reply = Reply("server-0", "client-1", 1, Payload(b"fake"), request.digest())
    forged = seal_body(evil.server, fake_reply)

    def driver():
        inject = client._inbox
        inject.put(forged)
        outcome = yield from client.invoke(op("real"))
        assert outcome.result.content == b"echo:real"

    env.process(driver())
    env.run(until=5.0)
    assert client.stats.invalid_replies == 1


def test_closed_loop_schedule_holds_entries_per_client_not_per_request(world):
    """Every request arms a request_timeout timer that its reply makes
    moot. The reply wins the any_of and withdraws the timer, so after
    10 000 requests (all inside one request_timeout) the schedule holds
    a bounded number of entries per client, not one per request."""
    env, net, keyring, servers, machine = world
    clients = [
        LegacyClient(machine, f"client-{i}", keyring, servers) for i in range(8)
    ]
    for client in clients:
        client.connect_instant()
    loadgen = ClosedLoop(env, clients, lambda i, seq: op(f"k{i}"), Collector())
    loadgen.start()
    while loadgen.stats.completed < 10_000:
        env.run(until=env.now + 0.01)
    assert env.now < clients[0].request_timeout
    assert sum(client.stats.timeouts for client in clients) == 0
    withdrawn = env._withdrawn
    live = len(env._queue) - withdrawn
    assert live <= 4 * len(clients)
    # Withdrawn timers wait for the next rebuild: fewer than the rebuild
    # minimum, or not yet half the heap.
    assert withdrawn < _COMPACT_MIN or 2 * withdrawn <= len(env._queue)
    assert len(env._queue) < 2 * _COMPACT_MIN
