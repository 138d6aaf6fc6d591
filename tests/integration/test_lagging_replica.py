"""A replica that executes slower than the cluster checkpoints must keep
catching up from its own log (regression: the stable checkpoint used to
garbage-collect entries the laggard still needed, wedging it forever)."""

import pytest

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, put
from repro.deploy import build_baseline
from repro.hybster.config import ClusterConfig


class SlowKv(KvStore):
    """Same semantics, 30x the execution cost."""

    def execution_cost(self, op):
        return 30 * super().execution_cost(op)


def test_slow_replica_is_not_wedged_by_checkpoints():
    config = ClusterConfig(f=1, checkpoint_interval=8, progress_timeout=5.0)
    cluster = build_baseline(seed=81, app_factory=KvStore, config=config)
    slow = cluster.replicas[2]
    slow.app = SlowKv()
    clients = [cluster.new_client(read_optimization=False) for _ in range(4)]
    done = []

    def driver(index, client):
        for i in range(30):
            yield from client.invoke(put(f"k{index}-{i}", b"v"))
        done.append(index)

    for index, client in enumerate(clients):
        cluster.env.process(driver(index, client))
    cluster.env.run(until=120.0)
    assert sorted(done) == [0, 1, 2, 3]

    total = 4 * 30
    fast = cluster.replicas[0]
    assert fast.stats.executions == total
    # Let the laggard drain with no new load.
    cluster.env.run(until=cluster.env.now + 60.0)
    assert slow.stats.executions == total
    assert slow.app.snapshot() == fast.app.snapshot()
    # Its log is eventually truncated up to what it executed.
    cut = min(slow.stable_seq, slow.next_exec - 1)
    assert all(seq > cut for seq in slow.log)
    # And no replica was pushed into a view change by mere slowness.
    assert all(replica.view == 0 for replica in cluster.replicas)
