"""Unit tests for the untrusted Troxy host."""

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.troxy import TROXY_ECALLS, FastReadProber, TroxyCore
from repro.troxy.core import Action


def test_ecall_table_is_the_declared_interface():
    cluster = build_troxy(seed=41, app_factory=KvStore, leases="off")
    host = cluster.hosts[0]
    # Exactly the roles this deployment has (tests/troxy/test_roles.py
    # walks the feature sets): the full table holds four names more.
    assert set(host.enclave.ecall_names) == {*TroxyCore.ecalls, *FastReadProber.ecalls}
    assert set(host.enclave.ecall_names) < set(TROXY_ECALLS) and len(TROXY_ECALLS) == 13
    # Plus Hybster's trusted-subsystem calls on its own boundary.
    replica_boundary = cluster.replicas[0].boundary
    assert "certify_order" in replica_boundary.ecall_names


def test_unknown_action_kind_raises():
    cluster = build_troxy(seed=42, app_factory=KvStore)
    host = cluster.hosts[0]

    def driver():
        yield from host._act(Action("launch_missiles"))

    cluster.env.process(driver())
    with pytest.raises(ValueError, match="unknown action kind"):
        cluster.env.run(until=1.0)


def test_wait_and_drop_actions_are_noops():
    cluster = build_troxy(seed=43, app_factory=KvStore)
    host = cluster.hosts[0]
    sent_before = cluster.net.messages_sent

    def driver():
        yield from host._act(Action("wait"))
        yield from host._act(Action("drop", reason="x"))
        yield from host._act(None)

    cluster.env.process(driver())
    cluster.env.run(until=1.0)
    assert cluster.net.messages_sent == sent_before


def test_stopped_host_ignores_traffic():
    cluster = build_troxy(seed=44, app_factory=KvStore)
    client = cluster.new_client(contact_index=1, request_timeout=0.5)
    cluster.hosts[1].stop()
    outcomes = []

    def driver():
        outcome = yield from client.invoke(put("k", b"v"))
        outcomes.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=30.0)
    # Served, but only after failover away from the dead host.
    assert outcomes and outcomes[0].result.content == b"stored"
    assert client.stats.failovers >= 1
    assert cluster.cores[1].stats.client_requests == 0


def test_host_routes_protocol_traffic_to_replica():
    cluster = build_troxy(seed=45, app_factory=KvStore)
    client = cluster.new_client(contact_index=0)

    def driver():
        yield from client.invoke(put("k", b"v"))

    cluster.env.process(driver())
    cluster.env.run(until=10.0)
    # Followers received ORDERs through their hosts' dispatch path.
    assert cluster.replicas[1].stats.commits_sent >= 1
    assert cluster.replicas[2].stats.commits_sent >= 1
