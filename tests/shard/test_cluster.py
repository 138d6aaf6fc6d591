"""End-to-end tests for sharded multi-group deployments (docs/SHARDING.md).

A sharded cell must stay transparent: legacy clients connect to any
replica of any group, never learn the topology, and still read their
own writes — whether the contacted Troxy owns the key (local path),
forwards the write into the owning group, or attests a remote fast
read back to the fronting enclave.
"""

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy


def _run_mixed_workload(shards, seed=7, clients=4, rounds=3):
    cluster = build_troxy(seed=seed, shards=shards, app_factory=KvStore)
    outcomes = {}

    def driver(index, client):
        mine = []
        for n in range(rounds):
            key = f"key-{index}-{n}"
            yield from client.invoke(put(key, f"v{index}/{n}".encode()))
            outcome = yield from client.invoke(get(key))
            mine.append((key, outcome.result.content))
        outcomes[index] = mine

    for index in range(clients):
        cluster.env.process(driver(index, cluster.new_client()))
    cluster.env.run(until=60.0)
    assert len(outcomes) == clients, "workload did not complete"
    return cluster, outcomes


@pytest.mark.parametrize("shards", [2, 4])
def test_clients_read_their_writes_across_groups(shards):
    cluster, outcomes = _run_mixed_workload(shards)
    for index, mine in outcomes.items():
        for n, (key, content) in enumerate(mine):
            assert content == f"v{index}/{n}".encode(), (key, content)

    # The keyspace genuinely spans groups and the forwarding path ran.
    keys = [key for mine in outcomes.values() for key, _ in mine]
    owners = {cluster.router.group_of_key(key) for key in keys}
    assert len(owners) > 1, "workload never crossed a group boundary"
    assert cluster.router.stats.forwards > 0
    assert sum(c.stats.forwarded_out for c in cluster.cores) > 0
    assert sum(c.stats.forwarded_in for c in cluster.cores) > 0

    # Every group made agreement progress on its own sealed counters.
    for group in cluster.groups:
        executed = sum(r.stats.executions for r in group.replicas)
        if any(
            cluster.router.group_of_key(key) == group.group_id for key in keys
        ):
            assert executed > 0, group.group_id


def test_remote_fast_reads_are_attested_back_to_the_fronting_troxy():
    # Pins the cross-group probe path: a lease would serve repeat reads
    # locally (docs/READS.md).
    cluster = build_troxy(seed=11, shards=2, app_factory=KvStore, leases="off")
    client = cluster.new_client(contact_index=0)  # fronted by g0's replica-0
    remote_keys = [
        f"k{i}" for i in range(64)
        if cluster.router.group_of_key(f"k{i}") == "g1"
    ][:4]
    reads = []

    def driver():
        for key in remote_keys:
            yield from client.invoke(put(key, b"x" + key.encode()))
        for key in remote_keys:
            # Second read of each key hits the owning group's warm cache.
            for _ in range(2):
                outcome = yield from client.invoke(get(key))
                reads.append((key, outcome.result.content))

    cluster.env.process(driver())
    cluster.env.run(until=60.0)
    assert len(reads) == 2 * len(remote_keys), "workload did not complete"
    for key, content in reads:
        assert content == b"x" + key.encode()
    assert sum(c.stats.shard_fast_replies_sent for c in cluster.cores) > 0
    assert sum(c.stats.shard_fast_replies_accepted for c in cluster.cores) > 0


def test_pinned_keys_land_in_their_group():
    cluster = build_troxy(seed=3, shards=2, app_factory=KvStore)
    client = cluster.new_client()
    done = []

    def driver():
        yield from client.invoke(put("__g1/pinned", b"one"))
        outcome = yield from client.invoke(get("__g1/pinned"))
        done.append(outcome.result.content)

    cluster.env.process(driver())
    cluster.env.run(until=30.0)
    assert done == [b"one"]
    # The value lives in g1's replicas (and only there).
    g1_apps = [r.app._data.get("__g1/pinned") for r in cluster.group("g1").replicas]
    g0_apps = [r.app._data.get("__g1/pinned") for r in cluster.group("g0").replicas]
    assert any(v == b"one" for v in g1_apps)
    assert all(v is None for v in g0_apps)


def test_single_group_build_rejects_bad_shard_counts():
    with pytest.raises(ValueError):
        build_troxy(shards=0)
