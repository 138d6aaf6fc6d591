"""Queue-span lifecycle under faults: leader crash with batching live.

The batch-queue probes (``hybster.queue``) bracket the leader's
:class:`BatchAssembler` buffer; a leader crash mid-pipeline exercises
every exit path at once — normal flushes on the old leader, the
view-change backlog drop on survivors, and in-flight spans at the
horizon. Whatever the path, every queue span must close exactly once
with an accounted reason, and attribution over the surviving traces
must still cover each completed request fully.
"""

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.hybster.config import ClusterConfig
from repro.obs.critpath import analyze
from repro.obs.probes import ObsPlane

FLUSH_REASONS = {"size", "idle", "timeout", "dropped"}


def test_queue_spans_close_exactly_once_across_leader_crash():
    config = ClusterConfig(f=1, request_timeout=1.5, progress_timeout=0.5)
    cluster = build_troxy(
        seed=74, app_factory=KvStore, config=config,
        batching="adaptive",
    )
    plane = ObsPlane().attach(cluster)
    completed = {}

    def driver(index, client):
        for n in range(3):
            outcome = yield from client.invoke(
                put(f"key-{index}", f"v{n}".encode())
            )
            assert outcome.result.content == b"stored"
        outcome = yield from client.invoke(get(f"key-{index}"))
        completed[index] = outcome.result.content

    clients = plane.wrap_clients([
        cluster.new_client(contact_index=1 + (i % 2), request_timeout=1.5)
        for i in range(6)
    ])
    for index, client in enumerate(clients):
        cluster.env.process(driver(index, client))

    def killer():
        yield cluster.env.timeout(0.0006)  # mid-burst, pipeline loaded
        cluster.hosts[0].stop()  # view-0 leader and its Troxy

    cluster.env.process(killer())
    cluster.env.run(until=180.0)
    plane.finalize()

    assert completed == {i: b"v2" for i in range(6)}
    assert plane.spans.open_count == 0

    queue_spans = [s for s in plane.spans.spans if s.name == "hybster.queue"]
    assert queue_spans, "batching leader recorded no queue spans"
    for span in queue_spans:
        assert span.end is not None and span.end >= span.start
        if span.attrs.get("unfinished"):
            continue  # in flight on the crashed leader at the horizon
        assert span.attrs.get("reason") in FLUSH_REASONS, span.attrs

    # The new leader re-ordered what died with the old pipeline, so
    # queue activity exists on both leaders' nodes.
    nodes = {span.node for span in queue_spans}
    assert len(nodes) >= 2, nodes

    # Attribution still accounts for every completed request in full.
    analysis = analyze(plane.spans)
    assert analysis.requests
    assert analysis.min_coverage() >= 0.95
