"""End-to-end tests of the Troxy-backed deployment."""

import pytest

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from tests.feature_sets import ALL_OFF, rerun_under_the_other_feature_sets


def run_ops(cluster, client, ops, until=30.0):
    results = []

    def driver():
        for op in ops:
            outcome = yield from client.invoke(op)
            results.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + until)
    return results


def test_write_then_read_through_leader_troxy(features=ALL_OFF):
    cluster = build_troxy(seed=1, app_factory=KvStore, **features)
    client = cluster.new_client(contact_index=0)  # replica-0 is the leader
    results = run_ops(cluster, client, [put("x", b"hello"), get("x")])
    assert [r.result.content for r in results] == [b"stored", b"hello"]


def test_write_then_read_through_follower_troxy(features=ALL_OFF):
    """Fig. 5c: the contact replica forwards to the leader."""
    cluster = build_troxy(seed=2, app_factory=KvStore, **features)
    client = cluster.new_client(contact_index=1)
    results = run_ops(cluster, client, [put("x", b"via-follower"), get("x")])
    assert [r.result.content for r in results] == [b"stored", b"via-follower"]


def test_client_receives_exactly_one_reply_per_request(features=ALL_OFF):
    """Transparency: no voting at the client, a single reply arrives."""
    cluster = build_troxy(seed=3, app_factory=KvStore, **features)
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("k", b"v")])
    # The client machine's inbox dispatcher saw exactly one envelope.
    assert client.stats.invocations == 1
    assert client.stats.invalid_replies == 0
    assert client.stats.timeouts == 0


def test_all_replicas_converge(features=ALL_OFF):
    cluster = build_troxy(seed=4, app_factory=KvStore, **features)
    clients = [cluster.new_client() for _ in range(4)]
    for i, client in enumerate(clients):
        cluster.env.process(client.invoke(put(f"key-{i}", f"v{i}".encode())))
    cluster.env.run(until=30.0)
    snapshots = {replica.app.snapshot() for replica in cluster.replicas}
    assert len(snapshots) == 1
    assert cluster.replicas[0].stats.executions == 4


def test_second_read_is_served_from_cache(features=ALL_OFF):
    # Pins the voted probe path: under a lease the second read would be
    # served locally (docs/READS.md), so only batching follows the set.
    cluster = build_troxy(seed=5, app_factory=KvStore, **{**features, "leases": "off"})
    client = cluster.new_client(contact_index=0)
    results = run_ops(
        cluster, client, [put("page", b"content"), get("page"), get("page")]
    )
    assert [r.result.content for r in results] == [b"stored", b"content", b"content"]
    core = cluster.cores[0]
    assert core.stats.fast_read_hits == 1  # second read hit the fast path
    # The fast read never entered the ordering pipeline.
    assert core.stats.ordered_requests == 2


def test_cache_shared_across_clients(features=ALL_OFF):
    cluster = build_troxy(seed=6, app_factory=KvStore, **features)
    writer = cluster.new_client(contact_index=0)
    run_ops(cluster, writer, [put("shared", b"data"), get("shared")])
    reader = cluster.new_client(contact_index=0)
    results = run_ops(cluster, reader, [get("shared")])
    assert results[0].result.content == b"data"
    assert cluster.cores[0].stats.fast_read_hits == 1


def test_write_invalidates_cache_before_reply(features=ALL_OFF):
    """The linearizability core: after a write completes, a fast read can
    never return the old value."""
    cluster = build_troxy(seed=7, app_factory=KvStore, **features)
    client = cluster.new_client(contact_index=0)
    results = run_ops(
        cluster,
        client,
        [put("k", b"v1"), get("k"), put("k", b"v2"), get("k")],
    )
    assert [r.result.content for r in results] == [b"stored", b"v1", b"stored", b"v2"]


def test_fast_read_falls_back_when_remote_cache_cold(features=ALL_OFF):
    """A remote Troxy without the entry causes a mismatch -> ordered."""
    cluster = build_troxy(seed=8, app_factory=KvStore, **features)
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("k", b"v"), get("k")])
    # Surgically clear one follower's cache (models an enclave reboot).
    cluster.cores[1].cache.clear()
    cluster.cores[2].cache.clear()
    results = run_ops(cluster, client, [get("k")])
    assert results[0].result.content == b"v"
    core = cluster.cores[0]
    assert core.stats.fast_read_conflicts >= 1  # mismatch -> fallback


def test_troxy_counts_stay_within_ecall_budget(features=ALL_OFF):
    """The prototype exposes only 16 ecalls; ours must too."""
    cluster = build_troxy(seed=9, app_factory=KvStore, **features)
    for host in cluster.hosts:
        assert len(host.enclave.ecall_names) <= 16


def test_enclave_transitions_happen(features=ALL_OFF):
    cluster = build_troxy(seed=10, app_factory=KvStore, **features)
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("x", b"1"), get("x")])
    assert all(host.enclave.stats.ecalls > 0 for host in cluster.hosts)


def test_ctroxy_has_no_sgx_costs_but_same_semantics(features=ALL_OFF):
    # Pins the voted probe path: under a lease the second read would be
    # served locally (docs/READS.md), so only batching follows the set.
    cluster = build_troxy(
        seed=11, app_factory=KvStore, boundary="jni", **{**features, "leases": "off"}
    )
    client = cluster.new_client(contact_index=0)
    results = run_ops(cluster, client, [put("x", b"1"), get("x"), get("x")])
    assert [r.result.content for r in results] == [b"stored", b"1", b"1"]
    assert cluster.cores[0].stats.fast_read_hits == 1


def test_fast_reads_disabled_orders_everything(features=ALL_OFF):
    cluster = build_troxy(seed=12, app_factory=KvStore, fast_reads=False, **features)
    client = cluster.new_client(contact_index=0)
    results = run_ops(cluster, client, [put("x", b"1"), get("x"), get("x")])
    assert [r.result.content for r in results] == [b"stored", b"1", b"1"]
    assert cluster.cores[0].stats.fast_read_attempts == 0
    assert cluster.cores[0].stats.ordered_requests == 3


test_under_feature_set = rerun_under_the_other_feature_sets(globals())
