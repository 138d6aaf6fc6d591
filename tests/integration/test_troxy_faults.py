"""Fault injection against the Troxy deployment (DESIGN.md section 5).

Each test stages one of the paper's threat-model behaviours through the
:mod:`repro.faults` plane and checks the system reacts as Sections
III-D, IV-B and VI-B prescribe.
"""

from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.faults import (
    EnclaveReboot,
    FaultPlane,
    HostTamper,
    MessageLoss,
    ReplicaCrash,
)
from repro.troxy.messages import CacheEntryReply
from tests.feature_sets import ALL_OFF, rerun_under_the_other_feature_sets


def run_ops(cluster, client, ops, until=30.0):
    results = []

    def driver():
        for op in ops:
            outcome = yield from client.invoke(op)
            results.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + until)
    return results


def test_byzantine_replica_result_outvoted(features=ALL_OFF):
    """A replica computing garbage cannot defeat the server-side voter."""
    cluster = build_troxy(seed=20, app_factory=KvStore, **features)

    class LyingApp(KvStore):
        def execute(self, op):
            super().execute(op)
            return Payload(b"\xffgarbage")

    cluster.replicas[2].app = LyingApp()
    client = cluster.new_client(contact_index=0)
    results = run_ops(cluster, client, [put("x", b"truth"), get("x")])
    assert [r.result.content for r in results] == [b"stored", b"truth"]


def test_untrusted_host_tampering_with_reply_detected_and_failed_over(features=ALL_OFF):
    """Bypassing Troxy (Section VI-B): the untrusted part of the contact
    replica mangles the sealed client reply. The client detects the
    corrupted channel, times out, and fails over to another Troxy."""
    cluster = build_troxy(seed=21, app_factory=KvStore, **features)
    plane = FaultPlane(cluster)
    tamper = HostTamper("replica-0", forged_result=b"\xffforged", count=0)
    plane.inject(tamper)
    client = cluster.new_client(contact_index=0, request_timeout=1.0)
    results = run_ops(cluster, client, [put("x", b"real"), get("x")], until=60.0)
    assert plane.hits[tamper] >= 1  # the attack actually ran
    assert client.stats.invalid_replies >= 1  # corrupted channel detected
    assert client.stats.failovers >= 1
    assert [r.result.content for r in results] == [b"stored", b"real"]


def test_troxy_crash_triggers_client_failover(features=ALL_OFF):
    """Section III-D: a crashed Troxy is handled like any crashed server;
    the client reconnects elsewhere and retransmits."""
    cluster = build_troxy(seed=22, app_factory=KvStore, **features)
    plane = FaultPlane(cluster)
    client = cluster.new_client(contact_index=1, request_timeout=1.0)
    results = run_ops(cluster, client, [put("x", b"v1")])
    assert results[0].result.content == b"stored"
    plane.inject(ReplicaCrash("replica-1"))  # crash the contact (a follower)
    results = run_ops(cluster, client, [get("x")], until=60.0)
    assert results[0].result.content == b"v1"
    assert client.stats.failovers >= 1


def test_stale_cache_reply_replay_rejected(features=ALL_OFF):
    """A malicious replica replays an earlier CacheEntryReply for a new
    query. The nonce binding makes it useless; the read still completes
    correctly (fallback path at worst)."""
    # Pins the voted probe path: under a lease the second read would be
    # served locally (docs/READS.md), so only batching follows the set.
    cluster = build_troxy(seed=23, app_factory=KvStore, **{**features, "leases": "off"})
    captured = []

    class CacheReplies:  # watches the wire: a probe-bus subscriber
        def event(self, t, kind, node, subject, attrs):
            if kind == "net.send" and isinstance(subject, CacheEntryReply):
                captured.append(subject)

    cluster.probe.subscribe(CacheReplies())
    client = cluster.new_client(contact_index=0)
    results = run_ops(
        cluster, client, [put("k", b"old"), get("k"), get("k")]
    )
    assert results[-1].result.content == b"old"
    assert captured, "expected at least one cache-entry reply on the wire"
    stale = captured[0]

    # Write a new value, then replay the stale answer during the next read.
    results = run_ops(cluster, client, [put("k", b"new")])
    assert results[0].result.content == b"stored"

    replaying_core = cluster.cores[0]

    def replay_driver():
        # Deliver the stale (old-nonce) reply straight to the voting core.
        action = yield from cluster.hosts[0].enclave.ecall(
            "handle_cache_entry_reply", stale, bytes_in=stale.wire_size
        )
        assert action.kind == "wait"  # no outstanding query with that nonce

    cluster.env.process(replay_driver())
    cluster.env.run(until=cluster.env.now + 5.0)

    results = run_ops(cluster, client, [get("k")])
    assert results[0].result.content == b"new"
    assert replaying_core.stats.invalid_messages == 0  # replay is inert, not a crash


def test_forged_cache_reply_rejected(features=ALL_OFF):
    """A replica without the group secret cannot forge cache answers."""
    cluster = build_troxy(seed=24, app_factory=KvStore, **features)
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("k", b"v"), get("k")])
    forged = CacheEntryReply(
        request_digest=b"\x00" * 32,
        reply_digest=b"\x11" * 32,
        responder="replica-1",
        nonce=999,
        tag=b"\x00" * 32,
    )

    def driver():
        action = yield from cluster.hosts[0].enclave.ecall(
            "handle_cache_entry_reply", forged, bytes_in=forged.wire_size
        )
        assert action.kind in ("wait", "drop")

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + 5.0)


def test_enclave_reboot_loses_cache_but_not_safety(features=ALL_OFF):
    """Rollback attack (Section IV-B): rebooting the enclave empties the
    cache (reads fall back to ordering) while the sealed trusted counters
    never regress, so ordering stays safe."""
    cluster = build_troxy(seed=25, app_factory=KvStore, **features)
    plane = FaultPlane(cluster)
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("k", b"v1"), get("k")])
    core = cluster.cores[0]
    assert len(core.cache) > 0
    counter_before = cluster.replicas[0].counters.current("order/0")

    plane.inject(EnclaveReboot("replica-0"))
    assert len(core.cache) == 0  # volatile state gone
    assert cluster.replicas[0].counters.current("order/0") == counter_before
    # The plane snapshotted the sealed counters right before the reboot.
    assert plane.counter_baselines["replica-0"][0]["order/0"] == counter_before

    # The client re-establishes its session (legacy reconnect behaviour)
    # and keeps working; reads are ordered again until the cache rewarms.
    client.connect_instant()
    results = run_ops(cluster, client, [get("k"), get("k")])
    assert [r.result.content for r in results] == [b"v1", b"v1"]


def test_leader_crash_in_troxy_mode_recovers_via_view_change(features=ALL_OFF):
    cluster = build_troxy(seed=26, app_factory=KvStore, **features)
    plane = FaultPlane(cluster)
    client = cluster.new_client(contact_index=1, request_timeout=2.0)
    results = run_ops(cluster, client, [put("x", b"before")])
    assert results[0].result.content == b"stored"
    plane.inject(ReplicaCrash("replica-0"))  # replica-0 is the view-0 leader
    results = run_ops(cluster, client, [put("y", b"after"), get("y")], until=90.0)
    assert [r.result.content for r in results] == [b"stored", b"after"]
    assert all(r.view >= 1 for r in cluster.replicas[1:])


def test_unresponsive_remote_troxy_times_out_to_ordering(features=ALL_OFF):
    """Performance attack: a remote Troxy that never answers cache
    queries only slows the read down to the ordered path."""
    cluster = build_troxy(seed=27, app_factory=KvStore, query_timeout=0.2, **features)
    plane = FaultPlane(cluster)
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("k", b"v"), get("k")])
    # Black-hole all cache queries leaving replica-0.
    blackhole = MessageLoss(
        src="replica-0", payload_types=("CacheQuery",), probability=1.0
    )
    plane.inject(blackhole)
    results = run_ops(cluster, client, [get("k")])
    assert results[0].result.content == b"v"
    assert cluster.cores[0].stats.fast_read_timeouts >= 1
    assert plane.hits[blackhole] >= 1


test_under_feature_set = rerun_under_the_other_feature_sets(globals())
