"""Regression: lease revocation and write invalidation share one epoch
source (docs/READS.md).

The fast-read cache's per-key invalidation epochs fence in-flight voted
reads against concurrent *writes*. Lease revocation reuses exactly that
mechanism: ``handle_lease_revoke`` bumps the same per-key epoch, so a
reply vote that entered the pipeline before the revoke can never
install its (pre-write) result afterwards. With a separate epoch
source, that vote would resurrect the revoked entry — and a subsequent
lease read on the refreshed lease could serve the stale value with no
quorum left to catch it.
"""

import pytest

from repro.apps.base import Operation, OpKind, Payload
from repro.crypto import KeyRing, establish_session
from repro.hybster.config import ClusterConfig, LeaseConfig
from repro.hybster.messages import Reply, Request
from repro.hybster.secure import seal_body
from repro.sgx.counters import TrustedCounterSubsystem
from repro.sgx.sealed import SealedStorage
from repro.sim import Environment, Network, RngTree
from repro.sgx import Enclave
from repro.troxy.core import TroxyCore
from repro.troxy.lease import LeaseHolder, LeaseManager
from repro.troxy.prober import FastReadProber
from repro.troxy.messages import LeaseRevoke

MASTER = b"master-secret-00"


@pytest.fixture
def harness():
    env = Environment()
    net = Network(env, rng_tree=RngTree(5))
    node = net.add_node("replica-0")
    enclave = Enclave(node, "troxy-0", code_identity="troxy-v1")
    keyring = KeyRing(MASTER)
    counters = TrustedCounterSubsystem(
        "troxy-replica-0",
        keyring.troxy_group(),
        storage=SealedStorage(MASTER + b"replica-0/troxy-lease", enclave.measurement),
    )
    config = ClusterConfig(f=1, leases=LeaseConfig.on())
    core = TroxyCore(
        node=node,
        enclave=enclave,
        replica_id="replica-0",
        config=config,
        keyring=keyring,
    )
    core.prober = FastReadProber(core, RngTree(5).derive("t"))
    core.holder = LeaseHolder(core, counters)
    return env, node, core, keyring


def drive(env, generator):
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


def leader_grant(core, keyring, key="k", epoch=1024, duration=1000.0):
    manager = LeaseManager("replica-1", keyring.troxy_instance("replica-1"),
                           LeaseConfig.on(duration=duration))
    manager.note_request(key, "replica-0", core.node.env.now)
    grants = manager.grants_for_slot(epoch // 1024, core.node.env.now)
    assert grants
    return manager, grants


def signed_revoke(keyring, grant, sender="replica-1"):
    tag = keyring.troxy_instance(sender).sign(
        LeaseRevoke.auth_input(grant.key, grant.epoch, grant.holder, sender)
    )
    return LeaseRevoke(grant.key, grant.epoch, grant.holder, sender, tag)


def test_vote_after_lease_revoke_cannot_resurrect_entry(harness):
    """An ordered read snapshots the key epoch, a lease revoke lands,
    then the read's f+1 vote completes: the voted result must NOT be
    installed — the revoke's epoch bump outdates the vote."""
    env, node, core, keyring = harness
    assert isinstance(core.holder, LeaseHolder)

    # Install a live lease on "k" at this holder.
    manager, grants = leader_grant(core, keyring)
    drive(env, core.holder.install_leases(grants))
    assert core.stats.lease_grants_installed == 1
    assert core.holder.table.valid("k", env.now)

    # An ordered read enters the vote pipeline (cold cache: the lease
    # path orders it to warm a voted entry). install_epoch snapshots now.
    envelope, session = client_envelope(core, keyring, read_op())
    action = drive(env, core.handle_client_envelope(envelope, "m"))
    assert action.kind == "order"
    pending = core._pending[("client-1", 1)]
    epoch_at_order = pending.install_epoch

    # The lease is revoked before the vote completes (a writer showed
    # up at the leader). Same epoch source: the key epoch moves.
    revoke = signed_revoke(keyring, grants[0])
    ack_action = drive(env, core.holder.handle_lease_revoke(revoke))
    assert ack_action.kind == "send_lease_ack"
    assert not core.holder.table.valid("k", env.now)
    assert core.cache.key_epoch(("k",)) > epoch_at_order

    # f+1 = 2 matching votes now arrive for the (pre-write) read result.
    stale = Payload(b"pre-write")
    for replica_id in ("replica-0", "replica-1"):
        reply = Reply(replica_id, "client-1", 1, stale, read_op().digest())
        drive(env, core._vote(reply))

    # The vote decided (client got its reply — that serve is legal, the
    # write had not committed) but the entry was NOT installed: nothing
    # for a later lease read to resurrect.
    assert core.stats.replies_voted == 1
    assert core.stats.stale_installs_skipped == 1
    assert core.cache.get_voted(read_op().digest()) is None
    assert core.cache.peek(read_op().digest()) is None


def test_vote_without_intervening_revoke_installs(harness):
    """Control: the identical vote flow with no revoke in between does
    install the voted entry — the fence only fires when it must."""
    env, node, core, keyring = harness
    envelope, _ = client_envelope(core, keyring, read_op())
    action = drive(env, core.handle_client_envelope(envelope, "m"))
    assert action.kind == "order"

    fresh = Payload(b"current")
    for replica_id in ("replica-0", "replica-1"):
        reply = Reply(replica_id, "client-1", 1, fresh, read_op().digest())
        drive(env, core._vote(reply))

    assert core.stats.replies_voted == 1
    assert core.stats.stale_installs_skipped == 0
    assert core.cache.get_voted(read_op().digest()) is not None


def test_revoke_fences_reinstall_of_same_grant(harness):
    """After a revoke, replaying the original grant must be fenced by
    the sealed counter — revocation burns the epoch."""
    env, node, core, keyring = harness
    manager, grants = leader_grant(core, keyring)
    drive(env, core.holder.install_leases(grants))
    revoke = signed_revoke(keyring, grants[0])
    drive(env, core.holder.handle_lease_revoke(revoke))

    drive(env, core.holder.install_leases(grants))  # replay
    assert core.stats.lease_grants_fenced == 1
    assert not core.holder.table.valid("k", env.now)
