"""Integration tests for the standalone server and Prophecy middlebox."""

import pytest

from repro.apps.base import Payload
from repro.apps.httpd import HttpPageService, get_operation, parse_response, post_operation
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_prophecy, build_standalone, build_troxy


def run_ops(cluster, client, ops, until=30.0):
    results = []

    def driver():
        for op in ops:
            outcome = yield from client.invoke(op)
            results.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + until)
    return results


# -- Standalone -----------------------------------------------------------------


def test_standalone_serves_requests():
    cluster = build_standalone(seed=1, app_factory=KvStore)
    client = cluster.new_client()
    results = run_ops(cluster, client, [put("k", b"v"), get("k")])
    assert [r.result.content for r in results] == [b"stored", b"v"]
    assert cluster.server.stats.requests == 2


def test_standalone_http_service():
    cluster = build_standalone(seed=2, app_factory=HttpPageService)
    client = cluster.new_client()
    results = run_ops(cluster, client, [get_operation("/page/0")])
    response = parse_response(results[0].result.content)
    assert response.status == 200
    assert len(response.body) == 4096


def test_standalone_offers_no_fault_tolerance():
    cluster = build_standalone(seed=3, app_factory=KvStore)
    client = cluster.new_client(request_timeout=0.5)
    run_ops(cluster, client, [put("k", b"v")])
    cluster.server.stop()

    def driver():
        try:
            yield from client.invoke(get("k"))
        except Exception:
            pass

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + 5.0)
    assert client.stats.timeouts >= 1  # the service is simply gone


# -- Prophecy --------------------------------------------------------------------


def test_prophecy_serves_requests():
    cluster = build_prophecy(seed=4, app_factory=KvStore)
    client = cluster.new_client()
    results = run_ops(cluster, client, [put("k", b"v"), get("k")])
    assert [r.result.content for r in results] == [b"stored", b"v"]


def test_prophecy_sketch_hit_on_repeated_read():
    cluster = build_prophecy(seed=5, app_factory=KvStore)
    client = cluster.new_client()
    results = run_ops(cluster, client, [put("k", b"v"), get("k"), get("k")])
    assert results[-1].result.content == b"v"
    assert cluster.middlebox.stats.sketch_hits == 1
    assert cluster.middlebox.stats.full_invocations == 2  # write + first read


def test_prophecy_refreshes_sketch_after_write():
    """A write invalidates nothing, but validation catches the change on
    up-to-date replicas, triggering a full (fresh) read."""
    cluster = build_prophecy(seed=6, app_factory=KvStore)
    client = cluster.new_client()
    results = run_ops(
        cluster, client,
        [put("k", b"v1"), get("k"), put("k", b"v2"), get("k")],
    )
    assert results[-1].result.content == b"v2"


def test_prophecy_returns_stale_read_with_lagging_replica():
    """The Table I consistency witness: Prophecy's one-replica validation
    accepts a stale sketch when the probed replica is behind; Troxy's
    quorum check rejects the same scenario."""

    class LaggingKv(KvStore):
        """A replica whose state machine silently stops applying writes
        at some point — a Byzantine behaviour within the f=1 budget."""

        lag = False

        def execute(self, op):
            if not op.is_read and self.lag:
                return Payload(b"stored")  # pretends, but doesn't apply
            return super().execute(op)

    # Prophecy: seed the sketch, freeze one replica, write, read again.
    cluster = build_prophecy(seed=7, app_factory=KvStore)
    lagging = LaggingKv()
    cluster.replicas[1].app = lagging
    # Pin validation probes to the lagging replica (worst case the paper
    # allows: Prophecy picks 1 replica at random).
    cluster.middlebox.rng = _FixedChoice("replica-1")
    client = cluster.new_client()
    results = run_ops(cluster, client, [put("k", b"old"), get("k")])
    assert results[1].result.content == b"old"
    lagging.lag = True  # replica-1 stops applying writes from here on
    results = run_ops(cluster, client, [put("k", b"new"), get("k")])
    # Stale: the sketch still matches the lagging replica's answer.
    assert results[1].result.content == b"old"
    assert cluster.middlebox.stats.sketch_hits >= 1

    # Troxy under the same attack returns the fresh value.
    tcluster = build_troxy(seed=7, app_factory=KvStore)
    tlagging = LaggingKv()
    tcluster.replicas[1].app = tlagging
    tclient = tcluster.new_client(contact_index=1)
    tresults = run_ops(tcluster, tclient, [put("k", b"old"), get("k")])
    tlagging.lag = True
    tresults = run_ops(tcluster, tclient, [put("k", b"new"), get("k")])
    assert tresults[1].result.content == b"new"


class _FixedChoice:
    """rng stand-in whose choice() always returns a fixed element."""

    def __init__(self, value):
        self.value = value

    def choice(self, seq):
        assert self.value in seq
        return self.value


def test_prophecy_http_service():
    cluster = build_prophecy(seed=8, app_factory=HttpPageService)
    client = cluster.new_client()
    results = run_ops(
        cluster, client, [get_operation("/page/1"), get_operation("/page/1")]
    )
    for outcome in results:
        assert parse_response(outcome.result.content).status == 200
    assert cluster.middlebox.stats.sketch_hits == 1
