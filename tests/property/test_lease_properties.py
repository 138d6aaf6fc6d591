"""Property-based tests for lease-based linearizable reads (docs/READS.md).

Three layers of the lease machinery are driven through arbitrary
interleavings:

* :class:`~repro.troxy.lease.LeaseManager` — the leader side: at most
  one holder per key at any instant (single-writer-per-key), whatever
  sequence of requests, grants, revocations, acks, and expiries occurs,
* :class:`~repro.troxy.lease.LeaseTable` — the holder side: the sealed
  ``troxy-lease`` counter makes installed epochs strictly monotone, so
  no interleaving of installs, revocations, and enclave reboots can
  resurrect a revoked or superseded lease,
* the full cluster — grant/revoke/expiry races under contended
  read/write workloads never produce a read older than the last
  committed write (the PR-5 linearizability oracle, leases on).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.history import HistoryRecorder
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.crypto.keys import KeyRing
from repro.hybster.config import LeaseConfig
from repro.sgx.counters import TrustedCounterSubsystem
from repro.sgx.sealed import SealedStorage
from repro.troxy.lease import LEASE_EPOCH_STRIDE, LeaseManager, LeaseTable
from repro.troxy.messages import LeaseGrant

KEYS = ["a", "b"]
HOLDERS = ["replica-0", "replica-1", "replica-2"]


def make_manager() -> LeaseManager:
    keyring = KeyRing(b"lease-prop-secret")
    return LeaseManager(
        "leader", keyring.troxy_instance("leader"), LeaseConfig.on(duration=1.0)
    )


@st.composite
def manager_schedules(draw):
    """A sequence of (action, args) steps with a non-decreasing clock."""
    steps = []
    now = 0.0
    for seq in range(draw(st.integers(min_value=1, max_value=40))):
        now += draw(st.floats(min_value=0.0, max_value=0.4))
        action = draw(
            st.sampled_from(["request", "grant", "revoke", "ack", "expire"])
        )
        key = draw(st.sampled_from(KEYS))
        holder = draw(st.sampled_from(HOLDERS))
        steps.append((action, now, seq + 1, key, holder))
    return steps


@given(manager_schedules())
@settings(max_examples=200, deadline=None)
def test_single_writer_per_key(steps):
    """However requests, grants, revocations, acks, and expiries
    interleave, the manager never has two live grants for one key, and
    a second holder's request is refused while the first's lease is
    live — the single-writer-per-key invariant writes park behind."""
    manager = make_manager()
    live: dict[str, LeaseGrant] = {}  # model: key -> unexpired grant

    def drop_expired(now):
        for key in [k for k, g in live.items() if now >= g.expiry]:
            del live[key]

    for action, now, seq, key, holder in steps:
        drop_expired(now)
        if action == "request":
            queued = manager.note_request(key, holder, now)
            held = live.get(key)
            if held is not None and held.holder != holder:
                assert not queued, "request accepted while another holder is live"
        elif action == "grant":
            grants = manager.grants_for_slot(seq, now)
            assert len({g.key for g in grants}) == len(grants)
            for grant in grants:
                held = live.get(grant.key)
                assert held is None or held.holder == grant.holder, (
                    "granted over another holder's live lease"
                )
                assert grant.expiry > now
                live[grant.key] = grant
        elif action == "revoke":
            grant = manager.begin_revoke(key)
            if grant is not None:
                # Revoking does not end the lease: it stays blocking (and
                # live for its holder) until acked or expired.
                assert live.get(key) is grant or live.get(key) is None
        elif action == "ack":
            grant = live.get(key)
            if grant is not None and manager.on_ack(key, grant.epoch, grant.holder):
                del live[key]
        elif action == "expire":
            grant = manager._revoking.get(key)
            if grant is not None and manager.on_revoke_expired(key, grant, now):
                assert now >= grant.expiry
                live.pop(key, None)
        # The invariant proper: every key the model says is leased is
        # blocked for writers, and no key has two distinct live grants
        # (dict shape enforces the latter by construction — check the
        # manager agrees on who blocks).
        for k, g in live.items():
            if now < g.expiry:
                assert manager.blocking_keys((k,), now) == (k,)


def make_table(name: str = "prop") -> LeaseTable:
    counters = TrustedCounterSubsystem(
        f"lease-prop-{name}",
        KeyRing(b"lease-prop-secret").troxy_group(),
        storage=SealedStorage(b"lease-prop-seal" + name.encode(), b"m"),
    )
    return LeaseTable(counters)


def make_grant(key: str, epoch: int, expiry: float) -> LeaseGrant:
    keyring = KeyRing(b"lease-prop-secret")
    granter = keyring.troxy_instance("leader")
    tag = granter.sign(
        LeaseGrant.auth_input(key, "replica-0", "leader", epoch, expiry)
    )
    return LeaseGrant(key, "replica-0", "leader", epoch, expiry, tag)


@st.composite
def table_schedules(draw):
    steps = []
    now = 0.0
    epochs = st.integers(min_value=0, max_value=6 * LEASE_EPOCH_STRIDE)
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        now += draw(st.floats(min_value=0.0, max_value=0.3))
        action = draw(st.sampled_from(["install", "revoke", "reboot"]))
        steps.append(
            (
                action,
                now,
                draw(st.sampled_from(KEYS)),
                draw(epochs),
                now + draw(st.floats(min_value=0.1, max_value=1.0)),
            )
        )
    return steps


@given(table_schedules())
@settings(max_examples=200, deadline=None)
def test_install_epochs_are_monotone_under_fencing(steps):
    """The sealed counter admits each install epoch at most once and in
    strictly increasing order — across enclave reboots — so a replayed
    or rolled-back grant can never re-enter the table, and a revoked
    (burned) epoch can never install afterwards."""
    table = make_table("monotone")
    installed: list[int] = []
    burned: set[int] = set()
    for action, now, key, epoch, expiry in steps:
        if action == "install":
            outcome = table.install(make_grant(key, epoch, expiry), now)
            if outcome == "installed":
                assert epoch not in burned, "burned epoch resurrected"
                assert not installed or epoch > installed[-1], (
                    "install epoch not strictly increasing"
                )
                installed.append(epoch)
            elif installed and epoch <= installed[-1]:
                pass  # correctly refused (stale/fenced)
        elif action == "revoke":
            table.revoke(key, epoch)
            burned.add(epoch)
            assert not table.valid(key, now) or table.get(key).epoch > epoch
        elif action == "reboot":
            # Volatile table dies; the sealed counter survives.
            table.clear()
            assert len(table) == 0
    # After everything: re-offering every grant that ever installed must
    # be fenced — the counter is already past each of those epochs.
    for epoch in installed:
        outcome = table.install(make_grant("a", epoch, steps[-1][1] + 10.0), 0.0)
        assert outcome in ("fenced", "stale"), outcome


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_expiry_gates_validity(data):
    """A lease is valid strictly before its expiry and never at or after
    it, whatever install order the holder observed."""
    table = make_table("expiry")
    grants = []
    epoch = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        epoch += data.draw(st.integers(min_value=1, max_value=LEASE_EPOCH_STRIDE))
        key = data.draw(st.sampled_from(KEYS))
        expiry = data.draw(st.floats(min_value=0.5, max_value=5.0))
        grant = make_grant(key, epoch, expiry)
        if table.install(grant, 0.0) == "installed":
            grants.append(grant)
    for grant in grants:
        held = table.get(grant.key)
        if held is not grant:
            continue  # superseded by a later epoch on the same key
        probe = data.draw(st.floats(min_value=0.0, max_value=6.0))
        assert table.valid(grant.key, probe) == (probe < grant.expiry)


# -- end-to-end: leased reads stay linearizable -------------------------------------


@st.composite
def lease_workloads(draw):
    """A cluster seed, a short lease duration (to force expiry races),
    and a contended read-heavy workload over two keys."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    duration = draw(st.sampled_from([0.05, 0.15, 0.5]))
    n_clients = draw(st.integers(min_value=2, max_value=3))
    schedules = []
    for c in range(n_clients):
        ops = []
        for n in range(draw(st.integers(min_value=3, max_value=6))):
            key = f"k{draw(st.integers(0, 1))}"
            if draw(st.integers(0, 3)) == 0:  # read-heavy: leases matter
                ops.append(put(key, f"c{c}/{n}".encode()))
            else:
                ops.append(get(key))
        schedules.append(ops)
    return seed, duration, schedules


@given(lease_workloads())
@settings(max_examples=12, deadline=None)
def test_leased_reads_are_linearizable(workload):
    """Grant/revoke/expiry interleavings under contention never yield a
    read older than the last committed write: the recorded history of
    leased, fast, and ordered operations linearizes."""
    seed, duration, schedules = workload
    cluster = build_troxy(
        seed=seed, app_factory=KvStore, leases=LeaseConfig.on(duration=duration)
    )
    recorder = HistoryRecorder(cluster.env)
    done = []

    def driver(index, client, ops):
        for op in ops:
            yield from client.invoke(op)
        done.append(index)

    for index, ops in enumerate(schedules):
        client = recorder.wrap(cluster.new_client(contact_index=index % 3))
        cluster.env.process(driver(index, client, ops))
    cluster.env.run(until=60.0)

    assert len(done) == len(schedules), "workload did not complete"
    assert recorder.violation() is None
    served = sum(c.stats.lease_read_hits for c in cluster.cores)
    installed = sum(c.stats.lease_grants_installed for c in cluster.cores)
    assert installed >= 0 and served >= 0  # counters wired
