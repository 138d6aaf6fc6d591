"""The untrusted host's vote hold (DESIGN.md D12).

Early means wait: a replica vote that cannot complete a reply quorum
stays at the host and crosses inside the one ecall that can decide its
request. The hold is advisory, like the surplus filter next door
(``test_surplus_filter.py``). These tests run it against forged,
duplicated and mismatching votes, against a host that lies in either
direction, and across the three events that close a request with votes
still held.
"""

from dataclasses import replace

import pytest

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.hybster.messages import Order, Reply
from repro.hybster.secure import SecureEnvelope
from repro.troxy.host import _OpenRequest
from repro.troxy.messages import BatchedReply
from repro.workloads.legacy import LegacyClient

from .test_surplus_filter import EcallSink, contended_run, run_ops

OFF = dict(app_factory=KvStore, batching="off", leases="off")
VOTE_ECALLS = (
    "handle_replica_reply",
    "handle_replica_reply_batch",
    "authenticate_local_reply",
    "authenticate_batch_replies",
)


def foreign_keys(cluster, group="g1"):
    """Key names owned by ``group``: a client of a g0 host has them
    forwarded, so no vote is folded locally at its fronting Troxy."""
    names = (f"k{i}" for i in range(256))
    return [k for k in names if cluster.router.group_of_key(k) == group]


def journal(cluster, host):
    """Vote deliveries to ``host`` and its vote-bearing ecalls, in order."""
    events = []

    def on_ecall(name):
        if name in VOTE_ECALLS:
            events.append(name)

    def on_delivery(msg):
        if msg.dst == host.node.name and isinstance(msg.payload, (Reply, BatchedReply)):
            events.append(("vote", msg.src))

    host.enclave.probe.subscribe(EcallSink(host.enclave, on_ecall))
    cluster.net.add_delivery_tap(on_delivery)
    return events


def votes_to(cluster, host, edit):
    """Run ``edit(attempt, index)`` on every replica vote sent to
    ``host``; ``index`` counts them from 0."""
    seen = []

    def tap(attempt):
        if attempt.dst == host.node.name and isinstance(attempt.payload, Reply):
            seen.append(attempt.payload)
            edit(attempt, len(seen) - 1)

    cluster.net.add_send_filter(tap)
    return seen


def held_anywhere(cluster):
    return sum(len(e.held) for h in cluster.hosts for e in h._open.values())


def resigned(cluster, reply, **changes):
    """``reply`` with ``changes``, authenticated by its sender's Troxy:
    what a faulty replica (not a faulty network) can produce."""
    changed = replace(reply, troxy_tag=None, **changes)
    tag = cluster.keyring.troxy_instance(reply.replica_id).sign(changed.auth_bytes())
    return replace(changed, troxy_tag=tag)


# -- (i) forwarded request: the vote row of the crossing budget is 1 ----------------


def test_f1_forwarded_the_first_vote_waits_and_the_second_decides_in_one_crossing():
    cluster = build_troxy(seed=301, shards=2, **OFF)
    host = cluster.hosts[0]
    events = journal(cluster, host)

    def third_is_late(attempt, index):
        if index == 2:
            attempt.extra_delay = 0.001

    seen = votes_to(cluster, host, third_is_late)
    requests = []
    cluster.net.add_send_filter(
        lambda attempt: attempt.dst == host.node.name
        and isinstance(attempt.payload, SecureEnvelope)
        and requests.append(attempt.payload)
    )
    client = cluster.new_client(contact_index=0)
    before = host.enclave.stats.bytes_copied_in
    (result,) = run_ops(cluster, client, [put(foreign_keys(cluster)[0], b"v")])
    assert result.result.content == b"stored" and result.retries == 0
    # No ecall between the two arrivals; one for both votes; the third
    # vote finds the request closed.
    assert [e if isinstance(e, str) else e[0] for e in events] == [
        "vote", "vote", "handle_replica_reply", "vote",
    ]
    assert host.stats.held_votes == 1 and host.stats.surplus_votes == 1
    assert cluster.cores[0].stats.replies_voted == 1
    assert not host._open
    # Two crossings in all, the client's request and the votes; the
    # second copied both votes in.
    copied = host.enclave.stats.bytes_copied_in - before
    assert copied == sum(m.wire_size for m in (requests[0], seen[0], seen[1]))


# -- (ii) origin inside the group: the local crossing carries the early vote ---------


def test_remote_vote_before_local_execution_is_decided_by_the_local_crossing():
    cluster = build_troxy(seed=302, **OFF)
    leader, host, other = cluster.hosts
    events = journal(cluster, host)

    def origin_executes_last(attempt):
        if attempt.src == leader.node.name and attempt.dst == host.node.name:
            if isinstance(attempt.payload, Order):
                attempt.extra_delay = 0.002
            elif isinstance(attempt.payload, Reply):
                attempt.extra_delay = 0.01  # the surplus vote, well clear

    cluster.net.add_send_filter(origin_executes_last)
    client = cluster.new_client(contact_index=1)
    (result,) = run_ops(cluster, client, [put("k", b"v")])
    assert result.result.content == b"stored" and result.retries == 0
    assert events == [
        ("vote", other.node.name),
        "authenticate_local_reply",
        ("vote", leader.node.name),
    ]
    assert host.stats.held_votes == 1 and host.stats.surplus_votes == 1
    assert cluster.cores[1].stats.replies_voted == 1


# -- (iii) a forged early vote is still checked, inside the deciding crossing --------


def test_forged_first_vote_is_held_then_rejected_inside_and_the_request_completes():
    cluster = build_troxy(seed=303, shards=2, **OFF)
    host, core = cluster.hosts[0], cluster.cores[0]
    events = journal(cluster, host)

    def forge_first(attempt, index):
        if index == 0:
            attempt.payload = replace(attempt.payload, troxy_tag=b"\x00" * 32)

    votes_to(cluster, host, forge_first)
    client = cluster.new_client(contact_index=0)
    (result,) = run_ops(cluster, client, [put(foreign_keys(cluster)[0], b"v")])
    assert result.result.content == b"stored"
    assert result.retries == 0 and client.stats.timeouts == 0
    # The forgery waited at the host, unread; the second vote took it
    # inside, where it failed its MAC check; the third vote decided.
    assert [e for e in events if isinstance(e, str)] == ["handle_replica_reply"] * 2
    assert host.stats.held_votes == 1
    assert core.stats.invalid_messages == 1
    assert core.stats.replies_voted == 1


# -- (iv) a duplicate inflates the host's count: early crossing, same result ---------


def test_duplicate_delivery_makes_the_host_cross_early_and_changes_no_result():
    cluster = build_troxy(seed=304, shards=2, **OFF)
    host, core = cluster.hosts[0], cluster.cores[0]
    events = journal(cluster, host)

    def duplicate_first(attempt, index):
        if index == 0:
            cluster.net.send(attempt.src, attempt.dst, attempt.payload)
        elif index in (2, 3):  # index 1 is the copy
            attempt.extra_delay = 0.001 * index

    seen = votes_to(cluster, host, duplicate_first)
    client = cluster.new_client(contact_index=0)
    (result,) = run_ops(cluster, client, [put(foreign_keys(cluster)[0], b"v")])
    assert result.result.content == b"stored" and result.retries == 0
    assert seen[0] is seen[1]  # the same replica's reply, twice
    # The host counted two messages and crossed; the voter counted one
    # replica and waited. The next vote decided: the parent's cost.
    assert [e if isinstance(e, str) else e[0] for e in events] == [
        "vote", "vote", "handle_replica_reply", "vote", "handle_replica_reply", "vote",
    ]
    assert host.stats.held_votes == 1 and host.stats.surplus_votes == 1
    assert core.stats.replies_voted == 1 and core.stats.invalid_messages == 0


# -- (v) f = 2 --------------------------------------------------------------------------------


def test_f2_two_votes_wait_and_the_third_decides_in_one_crossing():
    cluster = build_troxy(seed=305, f=2, shards=2, **OFF)
    host = cluster.hosts[0]
    events = journal(cluster, host)

    def rest_is_late(attempt, index):
        if index >= 3:
            attempt.extra_delay = 0.001

    votes_to(cluster, host, rest_is_late)
    client = cluster.new_client(contact_index=0)
    (result,) = run_ops(cluster, client, [put(foreign_keys(cluster)[0], b"v")])
    assert result.result.content == b"stored" and result.retries == 0
    assert [e if isinstance(e, str) else e[0] for e in events] == [
        "vote", "vote", "vote", "handle_replica_reply", "vote", "vote",
    ]
    assert host.stats.held_votes == 2 and host.stats.surplus_votes == 2
    assert cluster.cores[0].stats.replies_voted == 1


def test_f2_two_mismatching_votes_then_matching_ones_still_decide():
    cluster = build_troxy(seed=306, f=2, shards=2, **OFF)
    host, core = cluster.hosts[0], cluster.cores[0]
    events = journal(cluster, host)

    def first_two_lie(attempt, index):
        if index < 2:  # two faulty replicas, each vouching for its own lie
            attempt.payload = resigned(
                cluster, attempt.payload, result=Payload(b"lie-%d" % index)
            )

    votes_to(cluster, host, first_two_lie)
    client = cluster.new_client(contact_index=0)
    key = foreign_keys(cluster)[0]
    results = run_ops(cluster, client, [put(key, b"v"), get(key)])
    assert [r.result.content for r in results] == [b"stored", b"v"]
    assert all(r.retries == 0 for r in results)
    # Two lies waited, the third vote took them in (three voters, no
    # three alike), the fourth and fifth crossed alone and decided.
    write = events[: events.index("handle_replica_reply") + 5]
    assert [e for e in write if isinstance(e, str)] == ["handle_replica_reply"] * 3
    assert core.stats.invalid_messages == 0  # authentic, merely wrong


# -- (vi) bundles ---------------------------------------------------------------------------------


def test_a_bundle_waits_and_the_next_one_takes_it_inside():
    cluster = build_troxy(seed=307, shards=2, app_factory=KvStore, batching="adaptive", leases="off")
    host = cluster.hosts[0]
    events = journal(cluster, host)
    keys = foreign_keys(cluster)
    clients = [cluster.new_client(contact_index=0) for _ in range(4)]
    for index, client in enumerate(clients):
        cluster.env.process(client.invoke(put(keys[index], b"v")))
    cluster.env.run(until=10.0)
    assert all(client.stats.timeouts == 0 for client in clients)
    assert cluster.cores[0].stats.replies_voted == 4
    # The four writes were ordered in fewer batches than requests.
    assert any(r.stats.batched_requests > r.stats.batches_sent for r in cluster.replicas)
    # The first vote message of the run is a bundle, and it waited: the
    # crossing came with the next one.
    assert events[0][0] == events[1][0] == "vote"
    assert "handle_replica_reply_batch" in events
    assert host.stats.held_votes >= 2
    assert held_anywhere(cluster) == 0


def test_one_completable_member_releases_everything_held_for_its_requests():
    """The many-to-many case, driven on the host's own table: a held
    bundle crosses whole, so it also counts as inside for the requests
    that did not trigger its release."""
    cluster = build_troxy(seed=308, f=2, app_factory=KvStore, batching="adaptive", leases="off")
    host = cluster.hosts[0]
    me, peers = host.node.name, [h.replica_id for h in cluster.hosts[1:]]

    def vote(sender, client_id):
        return Reply(sender, client_id, 1, Payload(b"x"), b"\x00" * 32)

    def bundle(sender, *client_ids):
        replies = tuple(vote(sender, c) for c in client_ids)
        tag = cluster.keyring.troxy_instance(sender).sign(
            BatchedReply.auth_input(sender, replies)
        )
        return BatchedReply(sender, replies, tag)

    a, b = _OpenRequest(1), _OpenRequest(1)
    host._open.update(a=a, b=b)
    stats = host.enclave.stats

    def deliver(message, src):
        before = stats.ecalls, stats.bytes_copied_in
        cluster.net.send(src, me, message)
        cluster.env.run(until=cluster.env.now + 0.01)
        return stats.ecalls - before[0], stats.bytes_copied_in - before[1]

    first = bundle(peers[0], "a", "b")
    assert deliver(first, peers[0]) == (0, 0)
    single = resigned(cluster, vote(peers[1], "b"))
    assert deliver(single, peers[1]) == (0, 0)
    assert (len(a.held), len(b.held)) == (1, 2) and host.stats.held_votes == 3
    # "b" can now complete (quorum 3); "c" is not open here. One
    # crossing carries the arriving bundle and both held messages.
    last = bundle(peers[2], "b", "c")
    assert deliver(last, peers[2]) == (
        1, first.wire_size + single.wire_size + last.wire_size
    )
    assert (b.inside, len(b.held)) == (3, 0)
    assert (a.inside, len(a.held)) == (1, 0)
    assert host.stats.surplus_votes == 0
    # "a" continues vote by vote: two more messages reach its quorum.
    assert deliver(bundle(peers[1], "a"), peers[1]) == (0, 0)
    assert deliver(bundle(peers[2], "a"), peers[2])[0] == 1
    assert (a.inside, len(a.held)) == (3, 0)
    assert cluster.cores[0].stats.invalid_messages == 0


# -- (vii) a lying host: omission one way, the parent's cost the other ----------------


def test_a_host_that_holds_every_vote_only_costs_a_failover():
    cluster = build_troxy(seed=309, shards=2, **OFF)
    liar = cluster.hosts[0]
    liar._reply_quorum = 1 << 30  # no vote ever "can complete" a quorum
    recorder, clients = contended_run(
        cluster, contact_index=0, keys=foreign_keys(cluster)[:2]
    )
    assert recorder.violation() is None
    # Nothing forwarded through the liar was decided there; each client
    # timed out once, left for an honest server and stayed.
    assert cluster.cores[0].stats.replies_voted == 0
    assert liar.stats.held_votes > 0
    assert all(client.stats.timeouts == 1 for client in clients)
    assert all(client.contact is not liar for client in clients)


def test_a_host_that_holds_nothing_pays_the_parent_cost_for_the_same_replies():
    def run(lie):
        cluster = build_troxy(seed=310, shards=2, **OFF)
        host = cluster.hosts[0]
        if lie:
            host._reply_quorum = 0  # every vote "completes" one: all cross
        events = journal(cluster, host)

        def third_is_late(attempt, index):
            if index % 3 == 2:
                attempt.extra_delay = 0.001

        votes_to(cluster, host, third_is_late)
        client = cluster.new_client(contact_index=0)
        ops = [put(k, k.encode()) for k in foreign_keys(cluster)[:6]]
        results = run_ops(cluster, client, ops)
        assert all(r.retries == 0 for r in results)
        crossings = sum(1 for e in events if isinstance(e, str))
        return [r.result.content for r in results], crossings, host.stats

    honest, once_each, held = run(lie=False)
    lying, as_parent, nothing_held = run(lie=True)
    assert lying == honest
    # Six forwarded writes: the parent commit crossed for each of the
    # f + 1 votes up to the decision, the hold crosses once.
    assert (once_each, held.held_votes) == (6, 6)
    assert (as_parent, nothing_held.held_votes) == (12, 0)
    assert held.surplus_votes == nothing_held.surplus_votes == 6


# -- (viii) a request that closes with votes held leaves nothing behind ----------------


def _collect(client, op, done):
    done.append((yield from client.invoke(op)))


def test_retransmission_with_a_vote_held_reopens_clean_and_is_answered():
    cluster = build_troxy(seed=311, shards=2, **OFF)
    host = cluster.hosts[1]
    client = LegacyClient(
        cluster.machines[0], "client-solo", cluster.keyring, hosts=[host],
        request_timeout=0.5,
    )
    client.connect_instant()

    def lose_the_rest(attempt, index):
        if index in (1, 2):
            attempt.drop = True  # the first vote waits for a second in vain

    seen = votes_to(cluster, host, lose_the_rest)
    key = foreign_keys(cluster)[0]
    done = []
    cluster.env.process(_collect(client, put(key, b"v"), done))
    cluster.env.run(until=cluster.env.now + 0.25)
    entry = host._open[client.client_id]
    assert not done and (entry.inside, len(entry.held)) == (0, 1)
    cluster.env.run(until=cluster.env.now + 5.0)
    # The timeout brought a retransmission; the enclave re-opened the
    # request, the host started a fresh entry (the held vote is gone
    # with the old one) and the replicas' replays decided it.
    assert done and done[0].result.content == b"stored" and done[0].retries == 1
    assert host._open.get(client.client_id) is not entry
    assert any(not reply.fresh for reply in seen[3:])
    assert held_anywhere(cluster) == 0


@pytest.mark.parametrize("event", ["enclave_reboot", "host_restart"])
def test_votes_held_across_a_reboot_or_restart_do_not_leak(event):
    cluster = build_troxy(seed=312, shards=2, **OFF)
    host = cluster.hosts[0]

    def stall(attempt, index):
        if index in (1, 2):
            attempt.extra_delay = 0.05  # long enough to act in between

    votes_to(cluster, host, stall)
    client = cluster.new_client(contact_index=0, request_timeout=0.5)
    key = foreign_keys(cluster)[0]
    done = []
    cluster.env.process(_collect(client, put(key, b"v"), done))
    cluster.env.run(until=cluster.env.now + 0.02)
    assert not done and held_anywhere(cluster) == 1
    if event == "enclave_reboot":
        host.enclave.reboot()  # voter record and client session are gone
    else:
        host.stop()
        cluster.env.run(until=cluster.env.now + 0.01)
        host.restart()
        assert not host._open
    cluster.env.run(until=cluster.env.now + 10.0)
    # The late votes found nothing to decide; the client timed out,
    # reconnected elsewhere and was answered from the replicas' replays.
    assert done and done[0].result.content == b"stored"
    assert client.stats.timeouts == 1 and done[0].retries == 1
    assert held_anywhere(cluster) == 0
    results = run_ops(cluster, client, [get(key)])
    assert results[0].result.content == b"v"
    assert held_anywhere(cluster) == 0
