"""Adversarial validation of view-change-era messages."""

import pytest

from repro.apps.base import Operation, OpKind, Payload
from repro.apps.kvstore import KvStore
from repro.deploy import build_baseline
from repro.crypto import sha256
from repro.hybster.messages import NewView, Order, Request, ViewChange
from repro.crypto.primitives import digest_of


@pytest.fixture
def cluster():
    return build_baseline(seed=121, app_factory=KvStore)


def run(cluster, until=2.0):
    cluster.env.run(until=cluster.env.now + until)


def make_vc(replica, new_view, stable_seq=0, prepared=()):
    prepared_digest = digest_of(*[order.digest() for order in prepared])
    content = ViewChange.content_digest(
        new_view, stable_seq, prepared_digest, replica.replica_id
    )
    replica._ensure_counter("viewchange")
    cert = replica.counters.certify_at(
        "viewchange", replica.counters.current("viewchange") + 1, content
    )
    return ViewChange(
        new_view, stable_seq, replica.app.snapshot(), tuple(prepared),
        replica.replica_id, cert,
    )


def test_new_view_from_wrong_leader_rejected(cluster):
    follower = cluster.replicas[2]
    impostor = cluster.replicas[0]  # leader of view 0, NOT of view 1
    vcs = tuple(make_vc(r, 1) for r in cluster.replicas[:2])
    impostor._ensure_counter("newview")
    content = NewView.content_digest(1, digest_of(), impostor.replica_id)
    cert = impostor.counters.certify_at("newview", 1, content)
    nv = NewView(1, vcs, (), impostor.replica_id, cert)
    follower.dispatch(nv)
    run(cluster)
    assert follower.view == 0
    assert follower.stats.invalid_messages == 1


def test_new_view_with_too_few_viewchanges_rejected(cluster):
    follower = cluster.replicas[2]
    legit_leader = cluster.replicas[1]  # leader of view 1
    vcs = (make_vc(legit_leader, 1),)  # only 1 < f+1
    legit_leader._ensure_counter("newview")
    content = NewView.content_digest(1, digest_of(), legit_leader.replica_id)
    cert = legit_leader.counters.certify_at("newview", 1, content)
    nv = NewView(1, vcs, (), legit_leader.replica_id, cert)
    follower.dispatch(nv)
    run(cluster)
    assert follower.view == 0
    assert follower.stats.invalid_messages == 1


def test_new_view_with_forged_cert_rejected(cluster):
    from repro.crypto import KeyRing
    from repro.sgx.counters import TrustedCounterSubsystem

    follower = cluster.replicas[2]
    outsider = TrustedCounterSubsystem("evil", KeyRing(b"fake-master-00000").troxy_group())
    outsider.create("newview")
    vcs = tuple(make_vc(r, 1) for r in cluster.replicas[:2])
    content = NewView.content_digest(1, digest_of(), "replica-1")
    cert = outsider.certify_next("newview", content)
    nv = NewView(1, vcs, (), "replica-1", cert)
    follower.dispatch(nv)
    run(cluster)
    assert follower.view == 0
    assert follower.stats.invalid_messages == 1


def test_stale_new_view_ignored(cluster):
    """A NewView for a view we already passed is a no-op."""
    follower = cluster.replicas[2]
    follower.view = 3
    legit = cluster.replicas[1]
    vcs = tuple(make_vc(r, 1) for r in cluster.replicas[:2])
    legit._ensure_counter("newview")
    content = NewView.content_digest(1, digest_of(), legit.replica_id)
    cert = legit.counters.certify_at("newview", 1, content)
    follower.dispatch(NewView(1, vcs, (), legit.replica_id, cert))
    run(cluster)
    assert follower.view == 3


def test_view_change_with_forged_cert_rejected(cluster):
    from repro.crypto import KeyRing
    from repro.sgx.counters import TrustedCounterSubsystem

    follower = cluster.replicas[2]
    outsider = TrustedCounterSubsystem("evil", KeyRing(b"fake-master-00000").troxy_group())
    outsider.create("viewchange")
    content = ViewChange.content_digest(1, 0, digest_of(), "replica-0")
    cert = outsider.certify_next("viewchange", content)
    vc = ViewChange(1, 0, b"", (), "replica-0", cert)
    follower.dispatch(vc)
    run(cluster)
    assert follower.stats.invalid_messages == 1
    assert follower._view_change_pending is None
