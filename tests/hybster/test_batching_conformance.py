"""Protocol-conformance suite for batched agreement (docs/BATCHING.md).

Pins the compatibility contract of the batching layer:

* batched and unbatched deployments are state-machine equivalent (same
  client outcomes, same converged application state), whether the
  adaptive cutoff degrades to single-request batches or forms real ones,
* pipelined agreement commits strictly in order, including across a
  leader crash and view change.

That batching off is the pre-batching path is DESIGN.md D11's "absent
when off" (``tests/deploy/test_features.py``).
"""

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.hybster.config import ClusterConfig


#: Concurrent closed-loop clients enough for the adaptive cutoff to form
#: multi-request batches (each arrival finds others in flight).
CLIENTS = 16


def run_concurrent_mix(batching, clients: int = 4, writes: int = 4):
    cluster = build_troxy(seed=72, app_factory=KvStore, batching=batching)
    results = {}

    def driver(index, client):
        outcomes = []
        for n in range(writes):
            outcome = yield from client.invoke(
                put(f"key-{index}", f"v{n}".encode())
            )
            outcomes.append(outcome.result.content)
        outcome = yield from client.invoke(get(f"key-{index}"))
        outcomes.append(outcome.result.content)
        results[index] = outcomes

    for index in range(clients):
        cluster.env.process(driver(index, cluster.new_client(contact_index=0)))
    cluster.env.run(until=60.0)
    assert len(results) == clients, "workload did not complete"
    return cluster, results


def test_size_one_batches_are_state_machine_equivalent():
    """One closed-loop client never overlaps its own requests, so the
    adaptive cutoff stays at one request per batch."""
    legacy, legacy_results = run_concurrent_mix("off", clients=1)
    batched, batched_results = run_concurrent_mix("adaptive", clients=1)
    leader = batched.replicas[0]
    assert leader.stats.batches_sent == leader.stats.batched_requests > 0
    assert batched_results == legacy_results
    legacy_snap = {r.app.snapshot() for r in legacy.replicas}
    batched_snap = {r.app.snapshot() for r in batched.replicas}
    assert len(legacy_snap) == len(batched_snap) == 1
    assert batched_snap == legacy_snap
    assert {r.stats.executions for r in batched.replicas} == {
        r.stats.executions for r in legacy.replicas
    }


def test_multi_request_batches_preserve_outcomes():
    """Real batching is observationally equivalent for clients."""
    legacy, legacy_results = run_concurrent_mix("off", clients=CLIENTS)
    batched, batched_results = run_concurrent_mix("adaptive", clients=CLIENTS)
    assert batched_results == legacy_results
    assert {r.app.snapshot() for r in batched.replicas} == {
        r.app.snapshot() for r in legacy.replicas
    }
    leader = batched.replicas[0]
    assert leader.stats.batched_requests > leader.stats.batches_sent  # real batches formed


def executed_seqs(cluster, replica_id: str) -> list[int]:
    return [
        int(r.detail.split()[0].split("=")[1])
        for r in cluster.tracer.filter(
            category="proto.execute", node=replica_id
        )
    ]


def test_pipelined_commits_are_in_order():
    """With several batches in flight, every replica still executes in
    strictly non-decreasing, gap-free sequence order."""
    cluster = build_troxy(
        seed=73, app_factory=KvStore, trace=True,
        batching="adaptive",
    )
    done = []

    def driver(index, client):
        for n in range(6):
            outcome = yield from client.invoke(
                put(f"key-{index}", f"v{n}".encode())
            )
            assert outcome.result.content == b"stored"
        done.append(index)

    for index in range(6):
        cluster.env.process(driver(index, cluster.new_client(contact_index=0)))
    cluster.env.run(until=60.0)
    assert len(done) == 6

    leader = cluster.replicas[0]
    assert leader.stats.max_pipeline_depth >= 2, "pipeline never overlapped"
    for replica in cluster.replicas:
        seqs = executed_seqs(cluster, replica.replica_id)
        assert seqs, "replica executed nothing"
        assert seqs == sorted(seqs), "out-of-order execution"
        assert set(seqs) == set(range(1, max(seqs) + 1)), "gap in commit order"
    assert len({r.app.snapshot() for r in cluster.replicas}) == 1


def test_pipelined_commits_in_order_across_view_change():
    """A leader crash mid-pipeline must not lose, duplicate, or reorder
    batched requests: the new leader re-orders what died with the old
    pipeline and survivors keep executing in sequence order."""
    config = ClusterConfig(f=1, request_timeout=1.5, progress_timeout=0.5)
    cluster = build_troxy(
        seed=74, app_factory=KvStore, config=config, trace=True,
        batching="adaptive",
    )
    completed = {}

    def driver(index, client):
        for n in range(3):
            outcome = yield from client.invoke(
                put(f"key-{index}", f"v{n}".encode())
            )
            assert outcome.result.content == b"stored"
        outcome = yield from client.invoke(get(f"key-{index}"))
        completed[index] = outcome.result.content

    for index in range(6):
        client = cluster.new_client(
            contact_index=1 + (index % 2), request_timeout=1.5
        )
        cluster.env.process(driver(index, client))

    def killer():
        yield cluster.env.timeout(0.0006)  # mid-burst, pipeline loaded
        cluster.hosts[0].stop()  # view-0 leader and its Troxy

    cluster.env.process(killer())
    cluster.env.run(until=180.0)

    assert completed == {i: b"v2" for i in range(6)}
    survivors = cluster.replicas[1:]
    assert all(r.view >= 1 for r in survivors)
    assert len({r.app.snapshot() for r in survivors}) == 1
    for replica in survivors:
        seqs = executed_seqs(cluster, replica.replica_id)
        assert seqs == sorted(seqs), "out-of-order execution across views"
        # Exactly-once: no sequence slot executed the same request twice.
        labels = [
            r.detail for r in cluster.tracer.filter(
                category="proto.execute", node=replica.replica_id
            )
        ]
        assert len(labels) == len(set(labels))
