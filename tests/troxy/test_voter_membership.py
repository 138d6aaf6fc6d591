"""A quorum is f+1 matching votes from one agreement group (DESIGN.md D13).

All groups of a sharded deployment share one key ring, and an enclave's
``authenticate_local_reply`` tags whatever its untrusted host hands it.
One faulty replica per group is inside every group's ``f = 1``, yet two
of them, one in each of two groups, are f+1 voters: a voter that never
asks which group a vote came from lets them decide a request together.
Every attack here decided the forged value before the voter asked.
"""

from dataclasses import replace

import pytest

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.hybster.messages import Order, Reply, Request
from repro.troxy.messages import BatchedReply

from .test_core import client_envelope, drive, harness, read_op  # noqa: F401 (fixture)
from .test_surplus_filter import ecall_log, run_ops

FORGED = Payload(b"forged")


def delay_ordering(cluster, seconds):
    """Hold the honest path back so the forged votes are first."""

    def slow(attempt):
        if isinstance(attempt.payload, Order):
            attempt.extra_delay += seconds

    cluster.net.add_send_filter(slow)


@pytest.mark.parametrize("ecall", ["authenticate_local_reply", "authenticate_batch_replies"])
def test_one_faulty_replica_in_each_of_two_groups_decides_nothing(ecall):
    cluster = build_troxy(
        seed=11, app_factory=KvStore, shards=2, batching="off", leases="off"
    )
    key = next(
        k for k in (f"k{i}" for i in range(64)) if cluster.router.group_of_key(k) == "g0"
    )
    front, core = cluster.host_of("replica-0"), cluster.host_of("replica-0").core
    client = cluster.new_client(contact_index=0)
    assert run_ops(cluster, client, [put(key, b"honest")], until=1.0)
    delay_ordering(cluster, 0.005)
    read = get(key)
    # The BFT request replica-0's enclave will translate the read into:
    # the colluding hosts know it (one of them is sent its ORDER).
    request = Request(client.client_id, 2, read, origin="replica-0")

    def collude():
        while (client.client_id, 2) not in core._pending:
            yield cluster.env.timeout(10e-6)
        for name in ("replica-2", "g1-replica-0"):
            host = cluster.host_of(name)
            forged = Reply(name, client.client_id, 2, FORGED, read.digest())
            # The untrusted host hands its own enclave a reply the
            # replica never produced, and sends what comes back.
            if ecall == "authenticate_local_reply":
                args = (request, forged, True, ())
            else:
                args = ([(request, forged)], True, ())
            actions = yield from host.enclave.ecall(ecall, *args, bytes_in=forged.wire_size)
            assert [action.kind for action in actions] == ["send"]
            for action in actions:
                yield from host._act(action)

    votes = []
    cluster.net.add_delivery_tap(
        lambda msg: votes.append(msg.src)
        if msg.dst == "replica-0" and isinstance(msg.payload, (Reply, BatchedReply))
        else None
    )
    crossings = ecall_log(front)
    cluster.env.process(collude())
    (outcome,) = run_ops(cluster, client, [read], until=1.0)
    # Both forged votes arrived first and crossed together (the second
    # could have completed a quorum), and each was counted where it
    # belongs: replica-2's as one vote of g0, g1-replica-0's as a vote no
    # request ordered in g0 can use. Neither decided anything ...
    assert sorted(votes[:2]) == ["g1-replica-0", "replica-2"] and front.stats.held_votes == 1
    assert crossings[1] in ("handle_replica_reply", "handle_replica_reply_batch")
    assert core.stats.invalid_messages == 0
    assert outcome.result.content == b"honest" and outcome.retries == 0
    assert core.stats.replies_voted == 2  # the write, then the honest quorum
    # ... and what the honest quorum installed is the executed value.
    assert core.cache.get_voted(read.digest()).result.content == b"honest"
    assert core.stats.stale_installs_skipped == core.stats.replay_installs_skipped == 0


def test_an_unsharded_voter_rejects_a_vote_in_a_name_outside_its_group(harness):
    env, _node, core, keyring = harness
    envelope, _session = client_envelope(core, keyring, read_op())
    assert drive(env, core.handle_client_envelope(envelope, "m")).kind == "order"

    def vote(name):
        reply = Reply(name, "client-1", 1, FORGED, read_op().digest())
        tag = keyring.troxy_instance(name).sign(reply.auth_bytes())  # correctly tagged
        return replace(reply, troxy_tag=tag)

    for count, stranger in enumerate(("g1-replica-0", "g1-replica-1"), start=1):
        (action,) = drive(env, core.handle_replica_reply(vote(stranger)))
        assert action.kind == "drop"
        assert core.stats.invalid_messages == count
    assert core.stats.replies_voted == 0 and not core._pending["client-1", 1].votes
    # Its own group's f+1 still decide.
    (first,) = drive(env, core.handle_replica_reply(vote("replica-1")))
    (second,) = drive(env, core.handle_replica_reply(vote("replica-2")))
    assert (first.kind, second.kind) == ("wait", "reply")


def test_the_local_fold_votes_in_this_enclaves_own_name_only(harness):
    """The fold carries no tag; its voter name is the enclave's own. A
    host that hands in 'local' replies under other replicas' names would
    otherwise cast a whole quorum by itself."""
    env, _node, core, keyring = harness
    envelope, _session = client_envelope(core, keyring, read_op())
    drive(env, core.handle_client_envelope(envelope, "m"))
    request = Request("client-1", 1, read_op(), origin="replica-0")
    for name in ("replica-1", "replica-2"):
        forged = Reply(name, "client-1", 1, FORGED, read_op().digest())
        (action,) = drive(env, core.authenticate_local_reply(request, forged))
        assert action.kind == "drop"
        actions = drive(env, core.authenticate_batch_replies([(request, forged)]))
        assert [action.kind for action in actions] == ["drop"]
    assert core.stats.invalid_messages == 4 and core.stats.replies_voted == 0
    assert core.cache.peek(read_op().digest()) is None
    own = Reply("replica-0", "client-1", 1, FORGED, read_op().digest())
    (action,) = drive(env, core.authenticate_local_reply(request, own))
    assert action.kind == "wait" and list(core._pending["client-1", 1].votes) == ["replica-0"]
