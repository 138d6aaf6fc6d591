"""Checkpoint-message validation and stabilization rules."""

import pytest

from repro.apps.kvstore import KvStore, put
from repro.deploy import build_baseline
from repro.crypto import sha256
from repro.hybster.config import ClusterConfig
from repro.hybster.messages import Checkpoint, Tagged


@pytest.fixture
def cluster():
    config = ClusterConfig(f=1, checkpoint_interval=4)
    return build_baseline(seed=131, app_factory=KvStore, config=config)


def run(cluster, until=2.0):
    cluster.env.run(until=cluster.env.now + until)


def test_checkpoint_with_bad_tag_rejected(cluster):
    replica = cluster.replicas[0]
    forged = Tagged(
        Checkpoint(4, sha256(b"state"), "replica-1"), "replica-1", b"\x00" * 32
    )
    replica.dispatch(forged)
    run(cluster)
    assert replica.stats.invalid_messages == 1
    assert replica.stable_seq == 0


def test_single_checkpoint_vote_is_not_stable(cluster):
    replica = cluster.replicas[0]
    other = cluster.replicas[1]
    checkpoint = Checkpoint(4, sha256(b"claimed-state"), other.replica_id)
    replica.dispatch(other._tagged(checkpoint))
    run(cluster)
    assert replica.stable_seq == 0  # one vote < f+1


def test_mismatched_digests_do_not_stabilize(cluster):
    replica = cluster.replicas[0]
    r1, r2 = cluster.replicas[1], cluster.replicas[2]
    replica.dispatch(r1._tagged(Checkpoint(4, sha256(b"state-A"), r1.replica_id)))
    replica.dispatch(r2._tagged(Checkpoint(4, sha256(b"state-B"), r2.replica_id)))
    run(cluster)
    assert replica.stable_seq == 0  # two votes, but they disagree


def test_matching_quorum_stabilizes(cluster):
    replica = cluster.replicas[0]
    r1, r2 = cluster.replicas[1], cluster.replicas[2]
    digest = sha256(b"agreed-state")
    replica.dispatch(r1._tagged(Checkpoint(4, digest, r1.replica_id)))
    replica.dispatch(r2._tagged(Checkpoint(4, digest, r2.replica_id)))
    run(cluster)
    assert replica.stable_seq == 4


def test_stable_seq_never_regresses(cluster):
    replica = cluster.replicas[0]
    r1, r2 = cluster.replicas[1], cluster.replicas[2]
    digest8 = sha256(b"later")
    for peer in (r1, r2):
        replica.dispatch(peer._tagged(Checkpoint(8, digest8, peer.replica_id)))
    run(cluster)
    assert replica.stable_seq == 8
    digest4 = sha256(b"earlier")
    for peer in (r1, r2):
        replica.dispatch(peer._tagged(Checkpoint(4, digest4, peer.replica_id)))
    run(cluster)
    assert replica.stable_seq == 8  # old checkpoints cannot roll it back


def test_checkpoints_emitted_on_interval(cluster):
    client = cluster.new_client(read_optimization=False)

    def driver():
        for i in range(9):
            yield from client.invoke(put(f"k{i}", b"v"))

    cluster.env.process(driver())
    run(cluster, until=20.0)
    for replica in cluster.replicas:
        # Executions 1..9 -> checkpoints at 4 and 8, both stabilized.
        assert replica.stable_seq == 8
        assert replica.stats.checkpoints_stable >= 2
