"""Crash-recovery and state transfer.

A replica that was down while the cluster advanced past a stable
checkpoint cannot replay the missing slots (peers garbage-collected
them); it must install a checkpointed state it can corroborate with
f+1 witnesses, then resume normal ordering.
"""

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_baseline
from repro.hybster.config import ClusterConfig


def make_cluster(seed=91):
    config = ClusterConfig(f=1, checkpoint_interval=8, progress_timeout=2.0)
    return build_baseline(seed=seed, app_factory=KvStore, config=config)


def run_ops(cluster, client, ops, until=30.0):
    results = []

    def driver():
        for op in ops:
            outcome = yield from client.invoke(op)
            results.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + until)
    return results


def test_recovered_replica_catches_up_via_state_transfer():
    cluster = make_cluster()
    client = cluster.new_client(read_optimization=False)
    crashed = cluster.replicas[2]

    run_ops(cluster, client, [put(f"a{i}", b"x") for i in range(4)])
    crashed.stop()
    # The cluster moves on well past several checkpoints.
    run_ops(cluster, client, [put(f"b{i}", b"y") for i in range(30)])
    assert cluster.replicas[0].stable_seq >= 24

    crashed.restart()
    cluster.env.run(until=cluster.env.now + 30.0)
    assert crashed.stats.state_transfers >= 1
    assert crashed.app.snapshot() == cluster.replicas[0].app.snapshot()

    # And it participates again: new writes reach it.
    run_ops(cluster, client, [put("after", b"recovery")])
    cluster.env.run(until=cluster.env.now + 10.0)
    assert crashed.app.execute(get("after")).content == b"recovery"


def test_recovered_replica_rejects_forged_state():
    cluster = make_cluster(seed=92)
    client = cluster.new_client(read_optimization=False)
    crashed = cluster.replicas[2]
    run_ops(cluster, client, [put(f"a{i}", b"x") for i in range(4)])
    crashed.stop()
    run_ops(cluster, client, [put(f"b{i}", b"y") for i in range(30)])

    # One replica answers state requests with garbage.
    from repro.hybster.messages import StateResponse, Tagged

    liar = cluster.replicas[1]
    original_send = cluster.net.send

    def lying_send(src, dst, payload, size=None, **kwargs):
        if (
            src == liar.replica_id
            and isinstance(payload, Tagged)
            and isinstance(payload.msg, StateResponse)
        ):
            forged = StateResponse(
                payload.msg.seq, b"\xffgarbage-state",
                payload.msg.high_water, liar.replica_id,
            )
            payload = liar._tagged(forged)
        return original_send(src, dst, payload, size, **kwargs)

    cluster.net.send = lying_send
    crashed.restart()
    cluster.env.run(until=cluster.env.now + 30.0)
    # The forged offer never reaches f+1 corroboration, the honest one
    # (from the remaining correct replica + checkpoint votes) wins.
    assert crashed.app.snapshot() == cluster.replicas[0].app.snapshot()
    assert b"garbage-state" not in crashed.app.snapshot()


def test_state_transfer_counts_and_log_bounds():
    cluster = make_cluster(seed=93)
    client = cluster.new_client(read_optimization=False)
    crashed = cluster.replicas[1]
    run_ops(cluster, client, [put("seed", b"1")])
    crashed.stop()
    run_ops(cluster, client, [put(f"k{i}", b"v") for i in range(40)])
    crashed.restart()
    cluster.env.run(until=cluster.env.now + 30.0)
    assert crashed.next_exec > 40
    cut = min(crashed.stable_seq, crashed.next_exec - 1)
    assert all(seq > cut for seq in crashed.log)
