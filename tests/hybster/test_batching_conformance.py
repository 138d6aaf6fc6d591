"""Protocol-conformance suite for batched agreement (docs/BATCHING.md).

Pins the compatibility contract of the batching layer:

* at batch size 1 the wire flow is *byte-for-byte* the pre-batching
  protocol — same messages, same order, same simulated timestamps; the
  only trace difference is the purely diagnostic ``proto.batch`` record,
* batched and unbatched deployments are state-machine equivalent (same
  client outcomes, same converged application state),
* pipelined agreement commits strictly in order, including across a
  leader crash and view change.
"""

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.hybster.config import BatchConfig, ClusterConfig


def wire_trace(cluster) -> list[str]:
    """Every wire send as a rendered record (timestamp included)."""
    return [str(r) for r in cluster.tracer.filter(category="proto.send")]


def full_trace_sans_diagnostics(cluster) -> list[str]:
    """The whole protocol trace minus the batch-flush diagnostics, which
    describe leader-local policy decisions and never touch the wire."""
    return [
        str(r) for r in cluster.tracer.records if r.category != "proto.batch"
    ]


def run_sequential_writes(batching, rounds: int = 8):
    cluster = build_troxy(
        seed=71, app_factory=KvStore, trace=True, batching=batching
    )
    client = cluster.new_client(contact_index=0)
    contents = []

    def driver():
        for i in range(rounds):
            outcome = yield from client.invoke(put(f"k{i}", b"v"))
            contents.append(outcome.result.content)

    cluster.env.process(driver())
    cluster.env.run(until=30.0)
    assert len(contents) == rounds, "workload did not complete"
    return cluster, contents


def test_size_one_batches_are_wire_equivalent():
    """The fig5 conformance anchor: a size-1 configuration routes through
    the batch loop yet reproduces the pre-batching message flow byte for
    byte — message types, destinations, sequence labels *and* simulated
    timestamps."""
    legacy, legacy_results = run_sequential_writes("off")
    batched, batched_results = run_sequential_writes(BatchConfig.sized(1))
    assert batched_results == legacy_results
    assert wire_trace(batched) == wire_trace(legacy)
    assert full_trace_sans_diagnostics(batched) == full_trace_sans_diagnostics(legacy)
    # The batch loop really ran (this is not the legacy code path) ...
    leader = batched.replicas[0]
    assert leader.stats.batches_sent >= len(batched_results)
    # ... but no Batch message ever hit the wire: single-request batches
    # are emitted as bare Requests, preserving the wire format.
    assert not [line for line in wire_trace(batched) if "Batch" in line]


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
    legacy, legacy_results = run_concurrent_mix("off")
    batched, batched_results = run_concurrent_mix(BatchConfig.sized(1))
    assert batched_results == legacy_results
    legacy_snap = {r.app.snapshot() for r in legacy.replicas}
    batched_snap = {r.app.snapshot() for r in batched.replicas}
    assert len(legacy_snap) == len(batched_snap) == 1
    assert batched_snap == legacy_snap
    assert {r.stats.executions for r in batched.replicas} == {
        r.stats.executions for r in legacy.replicas
    }


def test_multi_request_batches_preserve_outcomes():
    """Real batching (size 4) is observationally equivalent for clients."""
    legacy, legacy_results = run_concurrent_mix("off")
    batched, batched_results = run_concurrent_mix(BatchConfig.sized(4))
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
        batching=BatchConfig(max_batch=4, pipeline_depth=4),
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
        batching=BatchConfig(max_batch=4, pipeline_depth=4),
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
