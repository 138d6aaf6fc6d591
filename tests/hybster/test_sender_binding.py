"""Every authenticator is bound to the replica it claims to come from.

One Byzantine replica (f = 1) holds a genuine trusted subsystem and a
genuine instance key. A certificate or tag that merely *verifies* proves
only that some group member produced it; each test below has the
Byzantine replica use its own valid credentials in another replica's
name, under another counter, or over other content, and checks that a
correct replica rejects the message, counts it invalid, and executes
nothing (DESIGN.md D11 and section 5; all fail before the binding).
"""

import pytest

from repro.apps.kvstore import KvStore, put
from repro.crypto.primitives import digest_of
from repro.deploy import build_baseline, build_troxy
from repro.hybster.messages import (
    Checkpoint,
    Commit,
    NewView,
    Order,
    Request,
    StateResponse,
    ViewChange,
)

from .test_view_change_validation import make_vc


@pytest.fixture
def cluster():
    return build_baseline(seed=171, app_factory=KvStore)


def forged_write(rid=1):
    return Request("client-x", rid, put("k", b"forged"), origin="client-machine-0")


def run(cluster, until=2.0):
    cluster.env.run(until=cluster.env.now + until)


def assert_untouched(replica, snapshot):
    assert replica.stats.executions == 0 and replica.stats.commits_sent == 0
    assert replica.view == 0 and replica.stable_seq == 0 and replica.next_exec == 1
    assert replica.app.snapshot() == snapshot


def test_order_certified_by_a_followers_own_counter_in_the_leaders_name(cluster):
    _leader, victim, byzantine = cluster.replicas
    before = victim.app.snapshot()
    request = forged_write()
    byzantine._ensure_counter("order/0")
    cert = byzantine.counters.certify_at(
        "order/0", 1, Order.content_digest(0, 1, request.digest())
    )
    assert victim.counters.verify(cert)  # genuine, just not the leader's
    victim.dispatch(Order(0, 1, request, cert, "replica-0"))
    run(cluster)
    assert victim.stats.invalid_messages == 1
    assert 1 not in victim.log
    assert_untouched(victim, before)


def test_order_certified_by_the_leader_on_another_counter(cluster):
    leader, victim, _ = cluster.replicas
    request = forged_write()
    leader._ensure_counter("order/7")
    cert = leader.counters.certify_at(
        "order/7", 1, Order.content_digest(0, 1, request.digest())
    )
    victim.dispatch(Order(0, 1, request, cert, leader.replica_id))
    run(cluster)
    assert victim.stats.invalid_messages == 1 and victim.stats.commits_sent == 0


def test_new_view_with_replayed_certificate_and_unverified_reproposal(cluster):
    _, byzantine, victim = cluster.replicas  # replica-1 leads view 1
    before = victim.app.snapshot()
    byzantine._ensure_counter("junk")
    replayed = byzantine.counters.certify_at("junk", 1, b"anything at all")
    fabricated = tuple(
        ViewChange(1, 0, b"", (), sender, replayed)
        for sender in ("replica-0", "replica-1")
    )
    reproposal = Order(1, 1, forged_write(), replayed, byzantine.replica_id)
    victim.dispatch(
        NewView(1, fabricated, (reproposal,), byzantine.replica_id, replayed)
    )
    run(cluster)
    assert victim.stats.invalid_messages == 1
    assert victim.log == {}
    assert_untouched(victim, before)


def genuine_new_view(cluster, view_changes, orders=()):
    """A NewView for view 1 really certified by its leader, replica-1."""
    leader = cluster.replicas[1]
    leader._ensure_counter("newview")
    content = NewView.content_digest(
        1, digest_of(*[order.digest() for order in orders]), leader.replica_id
    )
    cert = leader.counters.certify_at(
        "newview", leader.counters.current("newview") + 1, content
    )
    return NewView(1, tuple(view_changes), tuple(orders), leader.replica_id, cert)


@pytest.mark.parametrize("case", ["same-sender-twice", "vote-for-another-view",
                                   "vote-in-anothers-name", "reproposal-on-another-counter"])
def test_new_view_nested_content_is_checked(cluster, case):
    """The NewView's own certificate is genuine; what it carries is not."""
    _, byzantine, victim = cluster.replicas
    honest = make_vc(cluster.replicas[0], 1)
    orders = ()
    if case == "same-sender-twice":
        votes = (make_vc(byzantine, 1), make_vc(byzantine, 1))
    elif case == "vote-for-another-view":
        votes = (honest, make_vc(byzantine, 2))
    elif case == "vote-in-anothers-name":
        own = make_vc(byzantine, 1)
        votes = (honest, ViewChange(1, 0, b"", (), "replica-2", own.cert))
    else:
        votes = (honest, make_vc(byzantine, 1))
        request = forged_write()
        byzantine._ensure_counter("order/0")
        cert = byzantine.counters.certify_at(
            "order/0", 1, Order.content_digest(1, 1, request.digest())
        )
        orders = (Order(1, 1, request, cert, byzantine.replica_id),)
    victim.dispatch(genuine_new_view(cluster, votes, orders))
    run(cluster)
    assert victim.view == 0 and victim.stats.invalid_messages == 1
    assert victim.stats.executions == 0


def test_genuine_new_view_still_installs(cluster):
    _, leader, follower = cluster.replicas
    votes = (make_vc(cluster.replicas[0], 1), make_vc(leader, 1))
    follower.dispatch(genuine_new_view(cluster, votes))
    run(cluster)
    assert follower.view == 1 and follower.stats.invalid_messages == 0


def test_view_change_reporting_a_forged_prepared_order_is_rejected(cluster):
    _, byzantine, victim = cluster.replicas
    request = forged_write()
    byzantine._ensure_counter("order/0")
    cert = byzantine.counters.certify_at(
        "order/0", 1, Order.content_digest(0, 1, request.digest())
    )
    prepared = (Order(0, 1, request, cert, "replica-0"),)
    content = ViewChange.content_digest(
        1, 0, digest_of(*[order.digest() for order in prepared]), byzantine.replica_id
    )
    byzantine._ensure_counter("viewchange")
    vote_cert = byzantine.counters.certify_at("viewchange", 1, content)
    victim.dispatch(ViewChange(1, 0, b"", prepared, byzantine.replica_id, vote_cert))
    run(cluster)
    assert victim.stats.invalid_messages == 1
    assert victim._view_change_pending is None and victim.stats.view_changes == 0


def test_impersonated_checkpoint_votes_cannot_install_a_snapshot(cluster):
    victim, _, byzantine = cluster.replicas
    before = victim.app.snapshot()
    evil = KvStore()
    evil.execute(put("k", b"attacker-chosen"))
    snapshot = evil.snapshot()
    seq = 128
    state_digest = digest_of(seq.to_bytes(8, "big"), snapshot)
    for name in ("replica-0", "replica-1"):
        victim.dispatch(byzantine._tagged(Checkpoint(seq, state_digest, name)))
    run(cluster)
    assert victim.stats.invalid_messages == 2
    assert victim.stable_seq == 0 and victim.stats.checkpoints_stable == 0
    # The follow-up is tagged honestly (in the Byzantine replica's own
    # name), so it is not invalid; it just finds no corroboration.
    victim.dispatch(
        byzantine._tagged(StateResponse(seq, snapshot, seq, byzantine.replica_id))
    )
    run(cluster)
    assert victim.stats.invalid_messages == 2 and victim.stats.state_transfers == 0
    assert_untouched(victim, before)


def test_commit_in_another_replicas_name_does_not_count(cluster):
    """The forger's certificate is genuine and covers exactly the claimed
    fields (including the impersonated sender); only its issuer is wrong.
    With f = 2 this second vote would complete a quorum of three."""
    leader, _, byzantine = cluster.replicas
    request = forged_write()
    byzantine._ensure_counter("commit/0")
    content = Commit.content_digest(0, 1, request.digest(), "replica-1")
    cert = byzantine.counters.certify_at("commit/0", 1, content)
    leader.dispatch(Commit(0, 1, request.digest(), cert, "replica-1"))
    run(cluster)
    assert leader.stats.invalid_messages == 1
    assert 1 not in leader.log or not leader.log[1].commit_senders


def test_commit_from_another_groups_replica_does_not_count():
    """All groups share one key ring, so a foreign group's subsystem
    produces certificates that verify; it is still not a member."""
    site = build_troxy(seed=171, app_factory=KvStore, shards=2,
                       batching="off", leases="off")
    victim = site.groups[0].replicas[0]
    outsider = site.groups[1].replicas[1]
    request = forged_write()
    content = Commit.content_digest(0, 1, request.digest(), outsider.replica_id)
    cert = outsider.counters.certify_at("commit/0", 1, content)
    victim.dispatch(Commit(0, 1, request.digest(), cert, outsider.replica_id))
    run(site)
    assert victim.stats.invalid_messages == 1
    assert 1 not in victim.log or not victim.log[1].commit_senders
