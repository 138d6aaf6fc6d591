"""View change while traffic is in flight — no request may be lost or
duplicated, and the surviving replicas must converge."""

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_baseline, build_troxy
from repro.hybster.config import ClusterConfig


def test_baseline_leader_crash_under_load():
    config = ClusterConfig(f=1, request_timeout=1.0, progress_timeout=0.5)
    cluster = build_baseline(seed=61, app_factory=KvStore, config=config)
    clients = [cluster.new_client(read_optimization=False) for _ in range(8)]
    completed = {}

    def driver(index, client):
        for i in range(4):
            outcome = yield from client.invoke(put(f"key-{index}", f"v{i}".encode()))
            assert outcome.result.content == b"stored"
        outcome = yield from client.invoke(get(f"key-{index}"))
        completed[index] = outcome.result.content

    for index, client in enumerate(clients):
        cluster.env.process(driver(index, client))

    def killer():
        yield cluster.env.timeout(0.0006)  # mid-burst
        cluster.replicas[0].stop()

    cluster.env.process(killer())
    cluster.env.run(until=120.0)

    assert completed == {i: b"v3" for i in range(8)}
    survivors = cluster.replicas[1:]
    assert all(r.view >= 1 for r in survivors)
    snapshots = {r.app.snapshot() for r in survivors}
    assert len(snapshots) == 1
    # Exactly-once execution: both survivors executed the same (complete)
    # set of ordered writes; reads were unordered.
    executions = {r.stats.executions for r in survivors}
    assert len(executions) == 1
    assert executions.pop() >= 8 * 4


def test_troxy_leader_crash_under_load():
    config = ClusterConfig(f=1, request_timeout=1.5, progress_timeout=0.5)
    cluster = build_troxy(seed=62, app_factory=KvStore, config=config)
    clients = [cluster.new_client(contact_index=1 + (i % 2), request_timeout=1.5)
               for i in range(6)]
    completed = {}

    def driver(index, client):
        for i in range(3):
            outcome = yield from client.invoke(put(f"key-{index}", f"v{i}".encode()))
            assert outcome.result.content == b"stored"
        outcome = yield from client.invoke(get(f"key-{index}"))
        completed[index] = outcome.result.content

    for index, client in enumerate(clients):
        cluster.env.process(driver(index, client))

    def killer():
        yield cluster.env.timeout(0.0006)
        cluster.hosts[0].stop()  # the view-0 leader and its Troxy

    cluster.env.process(killer())
    cluster.env.run(until=180.0)

    assert completed == {i: b"v2" for i in range(6)}
    survivors = cluster.replicas[1:]
    assert all(r.view >= 1 for r in survivors)
    snapshots = {r.app.snapshot() for r in survivors}
    assert len(snapshots) == 1


def test_checkpointing_continues_across_view_change():
    config = ClusterConfig(
        f=1, checkpoint_interval=4, request_timeout=1.0, progress_timeout=0.5
    )
    cluster = build_baseline(seed=63, app_factory=KvStore, config=config)
    client = cluster.new_client(read_optimization=False)
    done = []

    def driver():
        for i in range(6):
            yield from client.invoke(put(f"a{i}", b"x"))
        cluster.replicas[0].stop()
        for i in range(10):
            yield from client.invoke(put(f"b{i}", b"y"))
        done.append(True)

    cluster.env.process(driver())
    cluster.env.run(until=120.0)
    assert done
    for replica in cluster.replicas[1:]:
        assert replica.stable_seq >= 8  # checkpoints kept advancing
        # Truncation bound: everything executed below the stable
        # checkpoint is gone; a replica only retains what it still needs.
        cut = min(replica.stable_seq, replica.next_exec - 1)
        assert all(seq > cut for seq in replica.log)
