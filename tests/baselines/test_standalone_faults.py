"""Negative-path tests for the comparator systems."""

import dataclasses

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_prophecy, build_standalone
from repro.crypto import establish_session
from repro.hybster.messages import Request
from repro.hybster.secure import seal_body


def run_ops(cluster, client, ops, until=30.0):
    results = []

    def driver():
        for op in ops:
            outcome = yield from client.invoke(op)
            results.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + until)
    return results


def test_standalone_rejects_unknown_session():
    cluster = build_standalone(seed=151, app_factory=KvStore)
    env, net = cluster.env, cluster.net
    evil = establish_session(b"attacker-secret!", "stranger", "server-0")
    request = Request("stranger", 1, put("k", b"v"), origin="client-machine-0")
    net.send("client-machine-0", "server-0", seal_body(evil.client, request))
    env.run(until=5.0)
    assert cluster.server.stats.invalid == 1
    assert cluster.server.stats.requests == 0


def test_standalone_rejects_tampered_request():
    cluster = build_standalone(seed=152, app_factory=KvStore)
    client = cluster.new_client()
    # Tamper with the op inside the envelope (digest mismatch).
    request = Request(client.client_id, 1, put("k", b"honest"), origin=client.node.name)
    envelope = seal_body(client._endpoint, request)
    evil_request = dataclasses.replace(request, op=put("k", b"EVIL"))
    forged = dataclasses.replace(envelope, body=evil_request)
    cluster.net.send(client.node.name, "server-0", forged)
    cluster.env.run(until=5.0)
    assert cluster.server.stats.invalid == 1
    assert cluster.server.app.execute(get("k")).content == b"\x00missing"


def test_prophecy_write_path_is_fully_ordered():
    cluster = build_prophecy(seed=153, app_factory=KvStore)
    client = cluster.new_client()
    run_ops(cluster, client, [put("k", b"v")])
    # The write went through BFT ordering on every replica.
    assert all(r.stats.executions == 1 for r in cluster.replicas)
    assert cluster.middlebox.stats.full_invocations == 1


def test_prophecy_crash_leaves_clients_stranded():
    """The middlebox is a single trusted box: its crash is an outage
    (unlike Troxy, where any replica's Troxy can take over)."""
    cluster = build_prophecy(seed=154, app_factory=KvStore)
    client = cluster.new_client(request_timeout=0.5)
    run_ops(cluster, client, [put("k", b"v")])
    cluster.middlebox.stop()

    def driver():
        try:
            yield from client.invoke(get("k"))
        except Exception:
            pass

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + 5.0)
    assert client.stats.timeouts >= 1
