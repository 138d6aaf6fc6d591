"""Unit tests for the catch-up machinery (FetchOrders / state transfer)."""

import pytest

from repro.apps.kvstore import KvStore, put
from repro.deploy import build_baseline
from repro.hybster.messages import FetchOrders, StateRequest, StateResponse


def make_cluster(seed=101, **config_kwargs):
    from repro.hybster.config import ClusterConfig

    config = ClusterConfig(f=1, **config_kwargs)
    return build_baseline(seed=seed, app_factory=KvStore, config=config)


def run(cluster, until=5.0):
    cluster.env.run(until=cluster.env.now + until)


def seed_traffic(cluster, count=5):
    client = cluster.new_client(read_optimization=False)

    def driver():
        for i in range(count):
            yield from client.invoke(put(f"k{i}", b"v"))

    cluster.env.process(driver())
    run(cluster, 20.0)
    return client


def test_fetch_orders_resends_from_log():
    cluster = make_cluster()
    seed_traffic(cluster, 5)
    leader, follower = cluster.replicas[0], cluster.replicas[1]
    sent_before = cluster.net.messages_sent
    fetch = follower._tagged(FetchOrders(0, 1, 3, follower.replica_id))
    leader.dispatch(fetch)
    run(cluster)
    assert cluster.net.messages_sent - sent_before == 3  # three ORDER resends


def test_fetch_orders_with_bad_tag_rejected():
    cluster = make_cluster(seed=102)
    seed_traffic(cluster, 3)
    leader = cluster.replicas[0]
    from repro.hybster.messages import Tagged

    forged = Tagged(FetchOrders(0, 1, 2, "replica-1"), "replica-1", b"\x00" * 32)
    invalid_before = leader.stats.invalid_messages
    leader.dispatch(forged)
    run(cluster)
    assert leader.stats.invalid_messages == invalid_before + 1


def test_state_request_ignored_when_not_ahead():
    cluster = make_cluster(seed=103)
    seed_traffic(cluster, 3)  # below any checkpoint: stable_seq == 0
    leader, follower = cluster.replicas[0], cluster.replicas[1]
    sent_before = cluster.net.messages_sent
    request = follower._tagged(StateRequest(5, follower.replica_id))
    leader.dispatch(request)
    run(cluster)
    assert cluster.net.messages_sent == sent_before  # nothing newer to offer


def test_state_request_answered_from_stable_checkpoint():
    cluster = make_cluster(seed=104, checkpoint_interval=4)
    seed_traffic(cluster, 10)
    leader, follower = cluster.replicas[0], cluster.replicas[1]
    assert leader.stable_seq >= 8
    responses = []
    original_send = cluster.net.send

    def spy_send(src, dst, payload, size=None, **kwargs):
        from repro.hybster.messages import Tagged

        if isinstance(payload, Tagged) and isinstance(payload.msg, StateResponse):
            responses.append(payload.msg)
        return original_send(src, dst, payload, size, **kwargs)

    cluster.net.send = spy_send
    request = follower._tagged(StateRequest(0, follower.replica_id))
    leader.dispatch(request)
    run(cluster)
    assert len(responses) == 1
    assert responses[0].seq == leader.stable_seq
    assert responses[0].snapshot == leader.stable_snapshot
    assert responses[0].high_water == leader.next_exec - 1


def test_state_response_requires_corroboration():
    """A single unsupported StateResponse must not be installed."""
    cluster = make_cluster(seed=105, checkpoint_interval=4)
    seed_traffic(cluster, 10)
    follower = cluster.replicas[1]
    # Reset the follower far behind with no checkpoint votes.
    lonely = StateResponse(999, b"\xfftotally-made-up", 999, "replica-2")
    tagged = cluster.replicas[2]._tagged(lonely)
    next_exec_before = follower.next_exec
    follower.dispatch(tagged)
    run(cluster)
    assert follower.next_exec == next_exec_before  # not installed
    assert follower.stats.state_transfers == 0


def test_message_wire_sizes():
    fetch = FetchOrders(0, 1, 5, "replica-1")
    assert fetch.wire_size > 24
    request = StateRequest(3, "replica-1")
    assert request.wire_size > 8
    response = StateResponse(8, b"x" * 100, 9, "replica-0")
    assert response.wire_size > 100
    # auth bytes bind every field
    assert StateResponse(8, b"x", 9, "a").auth_bytes() != StateResponse(9, b"x", 9, "a").auth_bytes()
    assert StateResponse(8, b"x", 9, "a").auth_bytes() != StateResponse(8, b"y", 9, "a").auth_bytes()
    assert FetchOrders(0, 1, 5, "a").auth_bytes() != FetchOrders(0, 1, 6, "a").auth_bytes()
