"""Adversarial message validation at the replica level.

Crafts protocol messages directly (valid and forged counter
certificates) and checks the replica's acceptance rules.
"""

import pytest

from repro.apps.base import Operation, OpKind, Payload
from repro.apps.kvstore import KvStore
from repro.deploy import build_baseline
from repro.crypto import KeyRing
from repro.crypto.primitives import digest_of
from repro.hybster.messages import Commit, NewView, Order, Request, ViewChange
from repro.sgx.counters import TrustedCounterSubsystem


@pytest.fixture
def cluster():
    return build_baseline(seed=71, app_factory=KvStore)


def make_request(rid=1):
    op = Operation(OpKind.WRITE, "put", "k", Payload(b"v"))
    return Request("client-x", rid, op, origin="client-machine-0")


def run(cluster, until=2.0):
    cluster.env.run(until=cluster.env.now + until)


def leader_order(cluster, seq, request, view=0, sender=None):
    """A genuinely certified ORDER from the real leader's subsystem."""
    leader = cluster.replicas[0]
    content = Order.content_digest(view, seq, request.digest())
    cert = leader.counters.certify_at(f"order/{view}", seq, content)
    return Order(view, seq, request, cert, sender or leader.replica_id)


def test_follower_accepts_valid_order_and_commits(cluster):
    follower = cluster.replicas[1]
    order = leader_order(cluster, 1, make_request())
    follower.dispatch(order)
    run(cluster)
    assert follower.stats.commits_sent == 1
    assert follower.log[1].order is order


def test_order_from_non_leader_rejected(cluster):
    follower = cluster.replicas[1]
    # replica-2 certifies with its own (genuine) subsystem but is not the
    # leader of view 0.
    impostor = cluster.replicas[2]
    impostor._ensure_counter("order/0")
    request = make_request()
    content = Order.content_digest(0, 1, request.digest())
    cert = impostor.counters.certify_at("order/0", 1, content)
    order = Order(0, 1, request, cert, "replica-2")
    follower.dispatch(order)
    run(cluster)
    assert follower.stats.invalid_messages == 1
    assert follower.stats.commits_sent == 0


def test_order_with_mismatched_counter_value_rejected(cluster):
    follower = cluster.replicas[1]
    leader = cluster.replicas[0]
    request = make_request()
    content = Order.content_digest(0, 1, request.digest())
    cert = leader.counters.certify_at("order/0", 7, content)  # value != seq
    order = Order(0, 1, request, cert, leader.replica_id)
    follower.dispatch(order)
    run(cluster)
    assert follower.stats.invalid_messages == 1


def test_order_with_foreign_group_key_rejected(cluster):
    follower = cluster.replicas[1]
    outsider = TrustedCounterSubsystem(
        "evil", KeyRing(b"not-the-real-master").troxy_group()
    )
    outsider.create("order/0")
    request = make_request()
    content = Order.content_digest(0, 1, request.digest())
    cert = outsider.certify_at("order/0", 1, content)
    order = Order(0, 1, request, cert, "replica-0")
    follower.dispatch(order)
    run(cluster)
    assert follower.stats.invalid_messages == 1


def test_commit_with_wrong_digest_rejected(cluster):
    leader = cluster.replicas[0]
    replica2 = cluster.replicas[2]
    request = make_request()
    # Legitimate order first, committed at the leader.
    order = leader_order(cluster, 1, request)
    # replica-2 certifies a commit whose content digest does not match
    # the claimed fields.
    replica2._ensure_counter("commit/0")
    bogus_content = Commit.content_digest(0, 1, b"\x00" * 32, "replica-2")
    cert = replica2.counters.certify_at("commit/0", 1, bogus_content)
    commit = Commit(0, 1, request.digest(), cert, "replica-2")
    leader.dispatch(commit)
    run(cluster)
    assert leader.stats.invalid_messages == 1


def test_out_of_order_orders_are_buffered_until_gap_fills(cluster):
    follower = cluster.replicas[1]
    first = leader_order(cluster, 1, make_request(1))
    second = leader_order(cluster, 2, make_request(2))
    follower.dispatch(second)  # arrives first
    run(cluster)
    assert follower.stats.commits_sent == 0  # waiting for seq 1
    follower.dispatch(first)
    run(cluster)
    assert follower.stats.commits_sent == 2  # both committed, in order
    assert follower.counters.current("commit/0") == 2


def test_unknown_payload_counted_invalid(cluster):
    replica = cluster.replicas[1]
    replica.dispatch(object())
    run(cluster)
    assert replica.stats.invalid_messages == 1


# -- surplus commits: decided means done -----------------------------------------


def forged_commit(seq, request, sender, view=0):
    """A COMMIT whose certificate comes from outside the group."""
    outsider = TrustedCounterSubsystem(
        "evil", KeyRing(b"not-the-real-master").troxy_group()
    )
    outsider.create(f"commit/{view}")
    content = Commit.content_digest(view, seq, request.digest(), sender)
    cert = outsider.certify_at(f"commit/{view}", seq, content)
    return Commit(view, seq, request.digest(), cert, sender)


def valid_commit(cluster, seq, request, sender_index, view=0):
    sender = cluster.replicas[sender_index]
    sender._ensure_counter(f"commit/{view}")
    content = Commit.content_digest(view, seq, request.digest(), sender.replica_id)
    cert = sender.counters.certify_at(f"commit/{view}", seq, content)
    return Commit(view, seq, request.digest(), cert, sender.replica_id)


def record_cpu(replica):
    """Every simulated CPU charge ``replica`` makes from now on, as the
    probe bus reports it (``node.compute``, once the charge completes)."""
    charged = []

    class Charges:
        def event(self, t, kind, node, subject, attrs):
            if kind == "node.compute" and node == replica.node.name:
                charged.append(attrs["seconds"])

    replica.node.probe.subscribe(Charges())
    return charged


def hold_execution(replica, seconds=10.0):
    """Make every execution take ``seconds``: the first slot then sits
    in the app while later slots commit behind it, unexecuted."""
    replica.app.execution_cost = lambda op: seconds


def test_surplus_commit_is_unmarshalled_but_never_verified(cluster):
    follower = cluster.replicas[1]
    hold_execution(follower)
    first, second = make_request(1), make_request(2)
    follower.dispatch(leader_order(cluster, 1, first))
    follower.dispatch(leader_order(cluster, 2, second))
    run(cluster, until=0.01)
    # Leader's ORDER + own COMMIT is the f+1 quorum: slot 2 is decided,
    # and still waiting behind slot 1 in the app.
    assert follower.log[2].committed and not follower.log[2].executed
    senders = dict(follower.log[2].commit_senders)
    charged = record_cpu(follower)
    forged = forged_commit(2, second, "replica-2")
    follower.dispatch(forged)
    run(cluster, until=0.01)
    assert charged == [follower._tx_cost(forged.wire_size)]
    assert follower.stats.surplus_commits == 1
    assert follower.stats.invalid_messages == 0
    assert follower.log[2].commit_senders == senders


def test_commit_for_an_executed_slot_is_surplus(cluster):
    follower = cluster.replicas[1]
    request = make_request()
    follower.dispatch(leader_order(cluster, 1, request))
    run(cluster)
    assert follower.next_exec == 2
    charged = record_cpu(follower)
    late = valid_commit(cluster, 1, request, sender_index=2)
    follower.dispatch(late)
    run(cluster)
    assert charged == [follower._tx_cost(late.wire_size)]
    assert follower.stats.surplus_commits == 1
    assert 1 not in follower.log or "replica-2" not in follower.log[1].commit_senders


def test_forged_commit_on_an_uncommitted_slot_is_still_rejected(cluster):
    leader = cluster.replicas[0]
    request = make_request()
    # Nothing ordered yet: the commit could still count, so it pays the
    # hash and the MAC check and fails them.
    charged = record_cpu(leader)
    forged = forged_commit(1, request, "replica-2")
    leader.dispatch(forged)
    run(cluster)
    assert leader.stats.invalid_messages == 1
    assert leader.stats.surplus_commits == 0
    assert len(charged) == 2 and charged[0] == leader._tx_cost(forged.wire_size)
    assert sum(charged) == pytest.approx(
        leader._rx_cost(forged.wire_size) + leader._mac_cost_const
    )
    assert 1 not in leader.log or not leader.log[1].commit_senders


def test_commits_of_reproposed_slots_are_verified_again_after_a_view_change():
    """f=2: a follower needs one commit beyond ORDER + its own, so a
    slot that was committed in view 0 is open again once view 1
    re-proposes it — and a forged commit for it is checked, not skipped."""
    cluster = build_baseline(seed=72, f=2, app_factory=KvStore)
    follower = cluster.replicas[4]
    hold_execution(follower)
    first, second = make_request(1), make_request(2)
    orders = [leader_order(cluster, 1, first), leader_order(cluster, 2, second)]
    for order in orders:
        follower.dispatch(order)
    run(cluster, until=0.01)
    follower.dispatch(valid_commit(cluster, 1, first, sender_index=1))
    follower.dispatch(valid_commit(cluster, 2, second, sender_index=1))
    run(cluster, until=0.01)
    assert follower.log[2].committed and not follower.log[2].executed

    # View 1 (leader replica-1) re-proposes both slots.
    new_leader = cluster.replicas[1]
    prepared_digest = digest_of(*[order.digest() for order in orders])
    vcs = []
    for replica in cluster.replicas[:3]:
        content = ViewChange.content_digest(1, 0, prepared_digest, replica.replica_id)
        replica._ensure_counter("viewchange")
        cert = replica.counters.certify_at("viewchange", 1, content)
        vcs.append(ViewChange(
            1, 0, replica.app.snapshot(), tuple(orders), replica.replica_id, cert
        ))
    new_leader._ensure_counter("order/1")
    reproposals = []
    for seq, request in ((1, first), (2, second)):
        content = Order.content_digest(1, seq, request.digest())
        cert = new_leader.counters.certify_at("order/1", seq, content)
        reproposals.append(Order(1, seq, request, cert, new_leader.replica_id))
    new_leader._ensure_counter("newview")
    content = NewView.content_digest(
        1, digest_of(*[o.digest() for o in reproposals]), new_leader.replica_id
    )
    cert = new_leader.counters.certify_at("newview", 1, content)
    follower.dispatch(
        NewView(1, tuple(vcs), tuple(reproposals), new_leader.replica_id, cert)
    )
    run(cluster, until=0.01)
    assert follower.view == 1
    assert not follower.log[2].committed  # ORDER + own commit: 2 of 3

    surplus_before = follower.stats.surplus_commits
    follower.dispatch(forged_commit(2, second, "replica-0", view=1))
    run(cluster, until=0.01)
    assert follower.stats.invalid_messages == 1
    assert follower.stats.surplus_commits == surplus_before
    assert not follower.log[2].committed
    follower.dispatch(valid_commit(cluster, 2, second, sender_index=2, view=1))
    run(cluster, until=0.01)
    assert follower.log[2].committed
