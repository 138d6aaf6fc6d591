"""The Troxy enclave's roles, its ecall table and the host's type-keyed
dispatch (DESIGN.md D13)."""

import dataclasses
import inspect
from dataclasses import replace

import pytest

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.hybster.messages import Reply, Request
from repro.hybster.secure import SecureEnvelope
from repro.sgx.enclave import EnclaveViolation
from repro.shard.front import ShardFront
from repro.troxy import TROXY_ECALLS, FastReadProber, LeaseHolder, TroxyCore, messages
from repro.troxy.core import OWN_GROUP, Waiter
from repro.troxy.messages import (
    BatchedReply,
    CacheEntryReply,
    CacheQuery,
    ForwardedRequest,
    LeaseGrant,
    LeaseRequest,
    LeaseRevoke,
    LeaseRevokeAck,
    ShardFastReply,
)

ROLE_CLASSES = (TroxyCore, FastReadProber, LeaseHolder, ShardFront)
#: troxy.messages classes no host is sent: grants ride inside ORDERs.
NOT_HOST_ADDRESSED = {LeaseGrant}
#: ... and the two the host relays to the replica's untrusted lease role.
RELAYED_TO_THE_GRANTER = {LeaseRequest, LeaseRevokeAck}


def full_site():
    return build_troxy(
        seed=3, app_factory=KvStore, shards=2, leases="on", batching="off"
    )


def test_handler_table_is_total():
    """Every message class a Troxy host can be sent has exactly one way
    in; a class added to troxy.messages without one fails here."""
    declared = {
        cls for _name, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__ and dataclasses.is_dataclass(cls)
    } - NOT_HOST_ADDRESSED
    host = full_site().hosts[1]
    assert set(host._ecall_of) | set(host._arms) == declared | {SecureEnvelope, Reply}
    # An arm either wraps the ecall the table names or never crosses.
    assert set(host._arms) - set(host._ecall_of) == RELAYED_TO_THE_GRANTER


def test_no_two_roles_claim_one_message_class_or_ecall():
    core = full_site().cores[1]
    assert [type(role) for role in core.roles] == [
        TroxyCore, FastReadProber, LeaseHolder, ShardFront
    ]
    claimed = [cls for role in core.roles for cls in role.handlers]
    names = [name for role in core.roles for name in role.ecalls]
    assert len(claimed) == len(set(claimed)) and len(names) == len(set(names))
    for role in core.roles:
        assert set(role.handlers.values()) <= set(role.ecalls)
    assert sorted(names) == sorted(TROXY_ECALLS) and len(TROXY_ECALLS) == 13


@pytest.mark.parametrize("features,roles", [
    (dict(), (TroxyCore, FastReadProber)),
    (dict(fast_reads=False), (TroxyCore,)),
    (dict(leases="on"), (TroxyCore, FastReadProber, LeaseHolder)),
    (dict(shards=2), (TroxyCore, FastReadProber, ShardFront)),
    (dict(shards=2, leases="on"), ROLE_CLASSES),
])
def test_the_ecall_table_is_exactly_the_roles_present(features, roles):
    features = {"leases": "off", **features}
    site = build_troxy(seed=3, app_factory=KvStore, batching="off", **features)
    expected = {name for role in roles for name in role.ecalls}
    assert len(expected) == {1: 6, 2: 9, 3: 11, 4: 13}[len(roles)]
    for host in site.hosts:
        assert set(host.enclave.ecall_names) == expected
        registered = {name: host.enclave._ecalls[name][0] for name in expected}
        for role in host.core.roles:
            assert all(registered[name].__self__ is role for name in role.ecalls)


# -- every tagged message, forged two ways ----------------------------------------------


class World:
    """A fully featured ``replica-0`` with state every tagged message
    would change if it were admitted."""

    def __init__(self):
        self.site = site = full_site()
        self.host = site.host_of("replica-0")
        self.core = core = self.host.core
        self.key = next(
            k for k in (f"k{i}" for i in range(64)) if site.router.group_of_key(k) == "g0"
        )
        read = get(self.key)
        cached = Reply("replica-0", "seed", 1, Payload(b"cached"), read.digest())
        core.cache.install(read.digest(), cached, keys=(self.key,))
        # An outstanding fast-read probe ...
        probing = Request("client-p", 1, read, origin="replica-0")
        action = self.call(core.prober.try_read(probing, Waiter(probing, "m")))
        ((self.responder, self.query),) = action.queries
        self.cached = cached
        # ... a voter record for a request ordered here, one for a request
        # forwarded to g1 ...
        self.voted = Request("client-v", 1, read, origin="replica-0")
        core.open_record(self.voted, Waiter(self.voted, "m"), OWN_GROUP)
        self.forwarded = Request("client-f", 1, get("__g1/x"), origin="replica-0")
        core.open_record(self.forwarded, Waiter(self.forwarded, "m"), "g1")
        # ... and a lease on the cached key.
        self.grant = self.message("LeaseGrant", "replica-1", epoch=1024)
        self.call(core.holder.install_leases((self.grant,)))
        assert core.holder.table.valid(self.key, site.env.now)

    def call(self, generator):
        box = []

        def proc():
            box.append((yield from generator))

        self.site.env.process(proc())
        self.site.env.run(until=self.site.env.now + 0.01)
        assert box, "trusted call did not complete"
        return box[0]

    def ecall(self, name, message):
        args = ((message,),) if name == "install_leases" else (message,)
        return self.call(
            self.host.enclave.ecall(name, *args, bytes_in=message.wire_size)
        )

    def message(self, kind, sender, epoch=2048):
        """A correctly tagged ``kind`` in the name of ``sender``."""
        sign = self.site.keyring.troxy_instance(sender).sign
        if kind == "CacheQuery":
            digest = get(self.key).digest()
            return CacheQuery(digest, sender, 7, sign(CacheQuery.auth_input(digest, sender, 7)))
        if kind == "CacheEntryReply":
            fields = (
                self.query.request_digest, self.cached.result_digest(), sender,
                self.query.nonce,
            )
            return CacheEntryReply(*fields, sign(CacheEntryReply.auth_input(*fields)))
        if kind in ("Reply", "BatchedReply"):
            vote = Reply(sender, "client-v", 1, Payload(b"forged"), self.voted.op.digest())
            if kind == "Reply":
                return replace(vote, troxy_tag=sign(vote.auth_bytes()))
            return BatchedReply(sender, (vote,), sign(BatchedReply.auth_input(sender, (vote,))))
        if kind == "ForwardedRequest":
            request = Request("client-w", 1, put(self.key, b"forged"), origin=sender)
            return ForwardedRequest(
                request, sender, sign(ForwardedRequest.auth_input(request, sender))
            )
        if kind == "ShardFastReply":
            verdict = Reply(sender, "client-f", 1, Payload(b"forged"), self.forwarded.op.digest())
            return ShardFastReply(verdict, sender, sign(ShardFastReply.auth_input(verdict, sender)))
        if kind == "LeaseGrant":
            fields = (self.key, "replica-0", sender, epoch, self.site.env.now + 10.0)
            return LeaseGrant(*fields, sign(LeaseGrant.auth_input(*fields)))
        assert kind == "LeaseRevoke"
        fields = (self.key, self.grant.epoch, "replica-0", sender)
        return LeaseRevoke(*fields, sign(LeaseRevoke.auth_input(*fields)))

    def state(self):
        core = self.core
        counted = dataclasses.asdict(core.stats)
        # Counted before the tag is looked at.
        for name in ("invalid_messages", "vote_batches", "batched_votes"):
            del counted[name]
        lease = core.holder.table.get(self.key)
        return (
            counted,
            {key: sorted(pending.votes) for key, pending in core._pending.items()},
            core.probe_request(self.query.nonce) is not None,
            dataclasses.asdict(core.cache.stats),
            core.cache.peek(get(self.key).digest()),
            lease and lease.epoch,
            core.cache.key_epoch((self.key,)),
            dict(core.front._leader_hint),
        )


ECALL_OF = {
    "CacheQuery": "answer_cache_query",
    "CacheEntryReply": "handle_cache_entry_reply",
    "Reply": "handle_replica_reply",
    "BatchedReply": "handle_replica_reply_batch",
    "ForwardedRequest": "handle_forwarded_request",
    "ShardFastReply": "handle_shard_fast_reply",
    "LeaseGrant": "install_leases",
    "LeaseRevoke": "handle_lease_revoke",
}


def flipped(message):
    field = "troxy_tag" if isinstance(message, Reply) else "tag"
    tag = getattr(message, field)
    return replace(message, **{field: tag[:-1] + bytes([tag[-1] ^ 1])})


@pytest.mark.parametrize("forgery", ["flipped tag", "valid tag of a non-member", "none"])
@pytest.mark.parametrize("kind", sorted(ECALL_OF))
def test_every_tagged_message_is_checked_on_entry(kind, forgery):
    """Refused, counted invalid once, nothing else moves — whether the
    tag is wrong or right but in a name outside every group. The genuine
    message, as a control, is admitted and does change state."""
    world = World()
    # The member each message is genuine from: the probed replica, the
    # forwarded-to group, the own group's other replicas.
    member = {"CacheEntryReply": world.responder, "ShardFastReply": "g1-replica-0"}.get(
        kind, "replica-1"
    )
    if forgery == "flipped tag":
        message = flipped(world.message(kind, member))
    elif forgery == "none":
        message = world.message(kind, member)
    else:
        message = world.message(kind, "g7-replica-0")
    before = world.state()
    invalid = world.core.stats.invalid_messages
    result = world.ecall(ECALL_OF[kind], message)
    if forgery == "none":
        assert world.core.stats.invalid_messages == invalid
        assert world.state() != before
        return
    assert world.core.stats.invalid_messages == invalid + 1
    assert world.state() == before
    if kind != "LeaseGrant":  # install_leases returns nothing either way
        (action,) = result if isinstance(result, tuple) else (result,)
        assert action.kind == "drop"


# -- a message for an absent role never crosses ------------------------------------------


def test_a_message_for_an_absent_role_never_crosses():
    """Leases off, one group: the lease and shard ecalls do not exist,
    and their well-tagged messages are unknown payloads to the host."""
    site = build_troxy(seed=3, app_factory=KvStore, batching="off", leases="off")
    host, replica = site.hosts[0], site.replicas[0]
    core, enclave = host.core, host.enclave
    for name in ("install_leases", "handle_lease_revoke",
                 "handle_forwarded_request", "handle_shard_fast_reply"):
        with pytest.raises(EnclaveViolation):
            next(enclave.ecall(name, ()))
    read = get("k")
    core.cache.install(
        read.digest(), Reply("replica-0", "seed", 1, Payload(b"v"), read.digest()), keys=("k",)
    )
    sign = site.keyring.troxy_instance("replica-1").sign
    revoke = LeaseRevoke(
        "k", 1024, "replica-0", "replica-1",
        sign(LeaseRevoke.auth_input("k", 1024, "replica-0", "replica-1")),
    )
    request = Request("client-w", 1, put("k", b"w"), origin="replica-1")
    forward = ForwardedRequest(
        request, "replica-1", sign(ForwardedRequest.auth_input(request, "replica-1"))
    )
    sent = []
    site.net.add_send_filter(lambda attempt: sent.append(type(attempt.payload)))
    before = (enclave.stats.ecalls, replica.stats.invalid_messages, core.cache.key_epoch(("k",)))
    for message in (revoke, forward):
        site.net.send("replica-1", "replica-0", message)
    site.env.run(until=site.env.now + 0.1)
    assert sent == [LeaseRevoke, ForwardedRequest]  # no ack, no order, nothing else
    assert (enclave.stats.ecalls, core.cache.key_epoch(("k",))) == (before[0], before[2])
    assert replica.stats.invalid_messages == before[1] + 2
    assert core.cache.peek(read.digest()) is not None
    assert core.stats.lease_revocations == core.stats.forwarded_in == 0
    assert core.stats.ordered_requests == 0 and replica.stats.orders_sent == 0
