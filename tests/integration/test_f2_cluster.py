"""Integration tests with f=2 (five replicas) — quorum arithmetic must
generalize beyond the evaluated f=1 deployment."""

import pytest

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_baseline, build_troxy
from tests.feature_sets import ALL_OFF, rerun_under_the_other_feature_sets


def run_ops(cluster, client, ops, until=40.0):
    results = []

    def driver():
        for op in ops:
            outcome = yield from client.invoke(op)
            results.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + until)
    return results


def test_baseline_f2_basic_operation(features=ALL_OFF):
    cluster = build_baseline(
        seed=51, f=2, app_factory=KvStore, batching=features["batching"]
    )
    client = cluster.new_client()
    results = run_ops(cluster, client, [put("x", b"v"), get("x")])
    assert [r.result.content for r in results] == [b"stored", b"v"]
    snapshots = {r.app.snapshot() for r in cluster.replicas}
    assert len(snapshots) == 1
    assert len(cluster.replicas) == 5


def test_troxy_f2_tolerates_two_byzantine_replicas(features=ALL_OFF):
    cluster = build_troxy(seed=52, f=2, app_factory=KvStore, **features)

    class Liar(KvStore):
        def execute(self, op):
            super().execute(op)
            return Payload(b"\xfflies")

    cluster.replicas[3].app = Liar()
    cluster.replicas[4].app = Liar()
    client = cluster.new_client(contact_index=0)
    results = run_ops(cluster, client, [put("x", b"truth"), get("x")])
    assert [r.result.content for r in results] == [b"stored", b"truth"]


def test_troxy_f2_fast_read_uses_two_remote_probes(features=ALL_OFF):
    # Pins the voted probe path: under a lease the second read would be
    # served locally (docs/READS.md), so only batching follows the set.
    cluster = build_troxy(seed=53, f=2, app_factory=KvStore, **{**features, "leases": "off"})
    client = cluster.new_client(contact_index=0)
    results = run_ops(
        cluster, client, [put("k", b"v"), get("k"), get("k")]
    )
    assert results[-1].result.content == b"v"
    core = cluster.cores[0]
    assert core.stats.fast_read_hits == 1
    # f = 2 remote troxies answered cache queries for the fast read.
    answered = sum(c.stats.cache_queries_answered for c in cluster.cores[1:])
    assert answered == 2


def test_troxy_f2_crashing_two_replicas_still_live(features=ALL_OFF):
    cluster = build_troxy(seed=54, f=2, app_factory=KvStore, query_timeout=0.2, **features)
    client = cluster.new_client(contact_index=1, request_timeout=2.0)
    results = run_ops(cluster, client, [put("a", b"1")])
    assert results[0].result.content == b"stored"
    cluster.hosts[3].stop()
    cluster.hosts[4].stop()
    results = run_ops(cluster, client, [put("b", b"2"), get("b")], until=60.0)
    assert [r.result.content for r in results] == [b"stored", b"2"]


test_under_feature_set = rerun_under_the_other_feature_sets(globals())
