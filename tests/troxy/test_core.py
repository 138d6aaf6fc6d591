"""Unit tests for the trusted Troxy core, driven directly (no cluster)."""

import pytest

from repro.apps.base import Operation, OpKind, Payload
from repro.crypto import KeyRing, establish_session
from repro.hybster.config import ClusterConfig
from repro.hybster.messages import Reply, Request
from repro.hybster.secure import seal_body
from repro.sim import Environment, Network, RngTree
from repro.sgx import Enclave
from repro.troxy.core import TroxyCore
from repro.troxy.messages import CacheEntryReply, CacheQuery
from repro.troxy.prober import FastReadProber


@pytest.fixture
def harness():
    env = Environment()
    net = Network(env, rng_tree=RngTree(5))
    node = net.add_node("replica-0")
    enclave = Enclave(node, "troxy-0", code_identity="troxy-v1")
    keyring = KeyRing(b"master-secret-00")
    core = TroxyCore(
        node=node,
        enclave=enclave,
        replica_id="replica-0",
        config=ClusterConfig(f=1),
        keyring=keyring,
    )
    core.prober = FastReadProber(core, RngTree(5).derive("t"))
    return env, node, core, keyring


def drive(env, generator):
    """Run a trusted generator to completion inside the simulation."""
    box = []

    def proc():
        result = yield from generator
        box.append(result)

    env.process(proc())
    env.run(until=env.now + 5.0)
    assert box, "trusted call did not complete"
    return box[0]


def client_envelope(core, keyring, op, client_id="client-1", rid=1):
    session = establish_session(
        keyring.tls_master("troxy-replica-0"), client_id, "replica-0"
    )
    core.install_session(client_id, session.server)
    request = Request(client_id, rid, op, origin="client-machine-0")
    return seal_body(session.client, request), session


def read_op(key="k"):
    return Operation(OpKind.READ, "get", key)


def write_op(key="k"):
    return Operation(OpKind.WRITE, "set", key, Payload(b"v"))


def test_write_request_is_ordered(harness):
    env, node, core, keyring = harness
    envelope, _ = client_envelope(core, keyring, write_op())
    action = drive(env, core.handle_client_envelope(envelope, "client-machine-0"))
    assert action.kind == "order"
    assert action.request.origin == "replica-0"  # rewritten to the contact
    assert not action.request.unordered


def test_request_without_session_dropped(harness):
    env, node, core, keyring = harness
    session = establish_session(keyring.tls_master("x"), "stranger", "replica-0")
    request = Request("stranger", 1, write_op(), origin="m")
    envelope = seal_body(session.client, request)
    action = drive(env, core.handle_client_envelope(envelope, "m"))
    assert action.kind == "drop"
    assert core.stats.invalid_messages == 1


def test_read_misses_cold_cache_and_orders(harness):
    env, node, core, keyring = harness
    envelope, _ = client_envelope(core, keyring, read_op())
    action = drive(env, core.handle_client_envelope(envelope, "m"))
    assert action.kind == "order"
    assert core.monitor.stats.misses == 1


def test_read_hit_emits_f_cache_queries(harness):
    env, node, core, keyring = harness
    reply = Reply("replica-0", "seed", 1, Payload(b"cached"), read_op().digest())
    core.cache.install(read_op().digest(), reply, keys=("k",))
    envelope, _ = client_envelope(core, keyring, read_op())
    action = drive(env, core.handle_client_envelope(envelope, "m"))
    assert action.kind == "query"
    assert len(action.queries) == 1  # f = 1 random remote
    dst, query = action.queries[0]
    assert dst in ("replica-1", "replica-2")
    assert query.asker == "replica-0"


def test_matching_cache_reply_completes_fast_read(harness):
    env, node, core, keyring = harness
    cached = Reply("replica-0", "seed", 1, Payload(b"cached"), read_op().digest())
    core.cache.install(read_op().digest(), cached, keys=("k",))
    envelope, session = client_envelope(core, keyring, read_op())
    action = drive(env, core.handle_client_envelope(envelope, "m"))
    _, query = action.queries[0]

    remote_key = keyring.troxy_instance(query.asker)  # wrong key on purpose below
    responder = [r for r in ("replica-1", "replica-2") if r == action.queries[0][0]][0]
    responder_key = keyring.troxy_instance(responder)
    tag = responder_key.sign(
        CacheEntryReply.auth_input(
            query.request_digest, cached.result_digest(), responder, query.nonce
        )
    )
    answer = CacheEntryReply(
        query.request_digest, cached.result_digest(), responder, query.nonce, tag
    )
    final = drive(env, core.prober.handle_cache_entry_reply(answer))
    assert final.kind == "reply"
    assert final.dst == "m"
    # The sealed reply opens on the client's endpoint.
    from repro.hybster.secure import open_body

    reply = open_body(session.client, final.message)
    assert reply.result.content == b"cached"
    assert core.stats.fast_read_hits == 1


def test_mismatching_cache_reply_falls_back_to_ordering(harness):
    env, node, core, keyring = harness
    cached = Reply("replica-0", "seed", 1, Payload(b"cached"), read_op().digest())
    core.cache.install(read_op().digest(), cached, keys=("k",))
    envelope, _ = client_envelope(core, keyring, read_op())
    action = drive(env, core.handle_client_envelope(envelope, "m"))
    responder, query = action.queries[0]
    responder_key = keyring.troxy_instance(responder)
    stale_digest = Payload(b"STALE").digest()
    tag = responder_key.sign(
        CacheEntryReply.auth_input(query.request_digest, stale_digest, responder, query.nonce)
    )
    answer = CacheEntryReply(query.request_digest, stale_digest, responder, query.nonce, tag)
    final = drive(env, core.prober.handle_cache_entry_reply(answer))
    assert final.kind == "order"
    assert core.stats.fast_read_conflicts == 1
    # The possibly-outdated local entry was dropped.
    assert core.cache.peek(read_op().digest()) is None


def test_forged_cache_query_rejected(harness):
    env, node, core, keyring = harness
    bogus = CacheQuery(b"\x00" * 32, "replica-1", 7, b"\x00" * 32)
    action = drive(env, core.prober.answer_cache_query(bogus))
    assert action.kind == "drop"
    assert core.stats.invalid_messages == 1


def test_write_invalidates_before_authentication(harness):
    env, node, core, keyring = harness
    cached = Reply("replica-0", "seed", 1, Payload(b"cached"), read_op().digest())
    core.cache.install(read_op().digest(), cached, keys=("k",))
    request = Request("client-1", 2, write_op(), origin="replica-0")
    reply = Reply("replica-0", "client-1", 2, Payload(b"done"), request.digest())
    action = drive(env, core.authenticate_local_reply(request, reply))
    # Entry for key "k" is gone by the time the tag exists.
    assert core.cache.peek(read_op().digest()) is None
    assert core.cache.stats.invalidations == 1


def test_vote_requires_quorum_of_distinct_troxies(harness):
    env, node, core, keyring = harness
    envelope, session = client_envelope(core, keyring, write_op())
    drive(env, core.handle_client_envelope(envelope, "m"))  # registers pending

    request = Request("client-1", 1, write_op(), origin="replica-0")
    result = Payload(b"done")

    def troxy_reply(replica_id):
        reply = Reply(replica_id, "client-1", 1, result, request.digest())
        tag = keyring.troxy_instance(replica_id).sign(reply.auth_bytes())
        return Reply(replica_id, "client-1", 1, result, request.digest(), troxy_tag=tag)

    (first,) = drive(env, core.handle_replica_reply(troxy_reply("replica-1")))
    assert first.kind == "wait"
    (duplicate,) = drive(env, core.handle_replica_reply(troxy_reply("replica-1")))
    assert duplicate.kind == "wait"  # same voter twice does not count
    (second,) = drive(env, core.handle_replica_reply(troxy_reply("replica-2")))
    assert second.kind == "reply"
    assert core.stats.replies_voted == 1


def test_held_votes_are_counted_in_the_crossing_that_brings_them(harness):
    """f = 2: the host hands in two held votes with the third. The same
    voter held twice still counts once; three distinct voters decide in
    the one crossing, and every vote is charged its own MAC check."""
    env, node, core, keyring = harness
    core.config = ClusterConfig(f=2)
    envelope, session = client_envelope(core, keyring, write_op())
    drive(env, core.handle_client_envelope(envelope, "m"))
    request = Request("client-1", 1, write_op(), origin="replica-0")

    def troxy_reply(replica_id):
        reply = Reply(replica_id, "client-1", 1, Payload(b"done"), request.digest())
        tag = keyring.troxy_instance(replica_id).sign(reply.auth_bytes())
        return Reply(
            replica_id, "client-1", 1, Payload(b"done"), request.digest(), troxy_tag=tag
        )

    one, two, three = (troxy_reply(f"replica-{i}") for i in (1, 2, 3))
    elapsed = []

    def timed():
        started = env.now
        actions = yield from core.handle_replica_reply(one, (one, one))
        elapsed.append(env.now - started)  # the core is idle: pure CPU
        return actions

    actions = drive(env, timed())
    assert [action.kind for action in actions] == ["wait", "wait", "wait"]
    assert elapsed[0] == pytest.approx(3 * core.profile.mac.cost(one.wire_size))
    actions = drive(env, core.handle_replica_reply(three, (one, two)))
    assert [action.kind for action in actions] == ["wait", "wait", "reply"]
    assert core.stats.replies_voted == 1
    assert core.stats.invalid_messages == 0


def test_vote_rejects_unauthenticated_reply(harness):
    env, node, core, keyring = harness
    request = Request("client-1", 1, write_op(), origin="replica-0")
    bare = Reply("replica-1", "client-1", 1, Payload(b"x"), request.digest())
    (action,) = drive(env, core.handle_replica_reply(bare))
    assert action.kind == "drop"
    forged = Reply(
        "replica-1", "client-1", 1, Payload(b"x"), request.digest(),
        troxy_tag=b"\x00" * 32,
    )
    (action,) = drive(env, core.handle_replica_reply(forged))
    assert action.kind == "drop"
    assert core.stats.invalid_messages == 2
    # Held or arriving makes no difference: each is checked on its own,
    # and something that is no vote message at all is rejected as well.
    actions = drive(env, core.handle_replica_reply(forged, (bare, forged, request)))
    assert [action.kind for action in actions] == ["drop"] * 4
    assert core.stats.invalid_messages == 6


def test_total_order_mode_bypasses_cache(harness):
    env, node, core, keyring = harness
    cached = Reply("replica-0", "seed", 1, Payload(b"cached"), read_op().digest())
    core.cache.install(read_op().digest(), cached, keys=("k",))
    for _ in range(core.monitor.window):
        core.monitor.record_conflict()
    assert core.monitor.total_order_mode
    envelope, _ = client_envelope(core, keyring, read_op())
    action = drive(env, core.handle_client_envelope(envelope, "m"))
    assert action.kind == "order"  # despite the warm cache


def test_reboot_clears_sessions_and_pending(harness):
    env, node, core, keyring = harness
    envelope, _ = client_envelope(core, keyring, write_op())
    drive(env, core.handle_client_envelope(envelope, "m"))
    assert core._pending
    core.enclave.reboot()
    assert not core._pending
    assert not core._sessions
