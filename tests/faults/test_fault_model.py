"""Unit tests for the fault types and the fault plane."""

import dataclasses
import inspect

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.faults import (
    EnclaveReboot,
    FaultEvent,
    FaultPlane,
    HostTamper,
    MessageCorrupt,
    MessageDelay,
    MessageLoss,
    NetworkPartition,
    ReplicaCrash,
    ReplicaRestart,
    Schedule,
    WriteContentionAttack,
)
from repro.faults import model
from repro.faults.model import Fault, Garbage, WireFault
from repro.sim.network import SendAttempt


def make_plane(seed=0, **kwargs):
    cluster = build_troxy(seed=seed, app_factory=KvStore, **kwargs)
    return cluster, FaultPlane(cluster)


def run_ops(cluster, client, ops, until=30.0):
    results = []

    def driver():
        for op in ops:
            outcome = yield from client.invoke(op)
            results.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + until)
    return results


def test_a_fault_plane_alone_leaves_the_probe_bus_off():
    """The plane intercepts (send filter, stop/restart, reboot); it
    observes nothing, so sites keep paying one flag test each."""
    cluster, plane = make_plane(seed=1)
    plane.inject(MessageDelay(src="replica-*", dst="replica-*", delay=0.5))
    plane.inject(EnclaveReboot("replica-0"))
    assert cluster.probe.on is False


# -- crash / restart ---------------------------------------------------------


def test_replica_crash_inject_and_heal():
    cluster, plane = make_plane(seed=1)
    fault = ReplicaCrash("replica-1")
    plane.inject(fault)
    assert cluster.host_of("replica-1")._stopped
    plane.heal(fault)
    assert not cluster.host_of("replica-1")._stopped
    # The plane logged both transitions with timestamps.
    assert [entry["event"] for entry in plane.log] == ["inject", "heal"]


def test_replica_restart_fault_brings_server_back():
    cluster, plane = make_plane(seed=2)
    plane.inject(ReplicaCrash("replica-2"))
    plane.inject(ReplicaRestart("replica-2"))
    assert not cluster.host_of("replica-2")._stopped


def test_crash_of_unknown_replica_raises():
    _, plane = make_plane(seed=3)
    with pytest.raises(KeyError):
        plane.inject(ReplicaCrash("replica-9"))


# -- enclave reboot ----------------------------------------------------------


def test_enclave_reboot_wipes_cache_and_snapshots_counters():
    cluster, plane = make_plane(seed=4)
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("k", b"v"), get("k")])
    assert len(cluster.cores[0].cache) > 0
    plane.inject(EnclaveReboot("replica-0"))
    assert len(cluster.cores[0].cache) == 0
    assert cluster.hosts[0].enclave.stats.reboots == 1
    snapshots = plane.counter_baselines["replica-0"]
    assert len(snapshots) == 1
    # Sealed counters survived: current values match the pre-reboot snapshot.
    after = cluster.replicas[0].counters.snapshot()
    assert after == snapshots[0]


def test_enclave_reboot_is_not_revertible():
    assert not EnclaveReboot("replica-0").revertible
    assert ReplicaCrash("replica-0").revertible
    assert not ReplicaRestart("replica-0").revertible


# -- partitions --------------------------------------------------------------


def test_partition_cuts_cross_group_links_and_heals():
    cluster, plane = make_plane(seed=5)
    fault = NetworkPartition((("replica-2",), ("replica-0", "replica-1")))
    plane.inject(fault)

    def dropped(src, dst):
        attempt = _attempt(src, dst)
        plane._filter(attempt)
        return attempt.drop

    # Every cross-group link is cut in both directions...
    assert dropped("replica-2", "replica-0")
    assert dropped("replica-0", "replica-2")
    assert dropped("replica-2", "replica-1")
    # ...intra-group links are untouched.
    assert not dropped("replica-0", "replica-1")
    plane.heal(fault)
    assert not dropped("replica-2", "replica-0")
    assert not dropped("replica-1", "replica-2")


def test_healing_one_partition_keeps_links_another_still_cuts():
    _, plane = make_plane(seed=5)
    wide = NetworkPartition((("replica-2",), ("replica-0", "replica-1")))
    narrow = NetworkPartition((("replica-2",), ("replica-0",)))
    plane.inject(wide)
    plane.inject(narrow)
    plane.heal(narrow)
    attempt = _attempt("replica-2", "replica-0")
    plane._filter(attempt)
    assert attempt.drop  # the wide partition still cuts r2 -> r0
    plane.heal(wide)
    attempt = _attempt("replica-2", "replica-0")
    plane._filter(attempt)
    assert not attempt.drop


# -- wire faults -------------------------------------------------------------


def _attempt(src="replica-0", dst="replica-1", payload=b"x", size=8):
    return SendAttempt(src, dst, payload, size, None)


def test_delay_rule_adds_latency_to_matching_sends():
    _, plane = make_plane(seed=6)
    fault = MessageDelay(src="replica-*", dst="replica-*", delay=0.5)
    plane.inject(fault)
    attempt = _attempt()
    plane._filter(attempt)
    assert attempt.extra_delay == pytest.approx(0.5)
    non_matching = _attempt(dst="client-machine-0")
    plane._filter(non_matching)
    assert non_matching.extra_delay == 0.0


def test_loss_rule_drops_and_heal_removes_it():
    _, plane = make_plane(seed=7)
    fault = MessageLoss(probability=1.0)
    plane.inject(fault)
    attempt = _attempt()
    plane._filter(attempt)
    assert attempt.drop
    assert plane.hits[fault] == 1
    plane.heal(fault)
    assert plane.wire == []
    assert plane.hits[fault] == 1  # hits survive the heal
    fresh = _attempt()
    plane._filter(fresh)
    assert not fresh.drop


def test_healing_one_of_two_equal_wire_faults_keeps_the_other():
    _, plane = make_plane(seed=7)
    fault = MessageLoss(probability=1.0)
    plane.inject(fault)
    plane.inject(MessageLoss(probability=1.0))
    plane.heal(fault)
    attempt = _attempt()
    plane._filter(attempt)
    assert attempt.drop  # the second black-hole is still active
    assert plane.wire == [fault]
    plane.heal(fault)
    fresh = _attempt()
    plane._filter(fresh)
    assert not fresh.drop


def test_payload_type_filter_restricts_rule():
    _, plane = make_plane(seed=8)
    fault = MessageLoss(payload_types=("CacheQuery",), probability=1.0)
    plane.inject(fault)
    attempt = _attempt(payload=b"not-a-cache-query")
    plane._filter(attempt)
    assert not attempt.drop


def test_corrupt_rule_replaces_unknown_payload_with_garbage():
    _, plane = make_plane(seed=9)
    fault = MessageCorrupt()
    plane.inject(fault)
    attempt = _attempt(payload=b"plain", size=64)
    plane._filter(attempt)
    assert isinstance(attempt.payload, Garbage)


def test_wire_rule_glob_matching():
    rule = MessageLoss(src="replica-*", dst="client-machine-?")
    assert rule.matches(_attempt(src="replica-2", dst="client-machine-1"))
    assert not rule.matches(_attempt(src="client-1", dst="client-machine-1"))
    assert not rule.matches(_attempt(src="replica-2", dst="client-machine-12"))


# -- host tampering ----------------------------------------------------------


def test_host_tamper_budget_limits_forgeries():
    cluster, plane = make_plane(seed=10)
    fault = HostTamper("replica-0", count=1)
    plane.inject(fault)
    client = cluster.new_client(contact_index=0, request_timeout=1.0)
    results = run_ops(cluster, client, [put("x", b"real"), get("x")], until=60.0)
    assert plane.hits[fault] == 1  # budget respected
    assert client.stats.invalid_replies >= 1
    assert [r.result.content for r in results] == [b"stored", b"real"]


# -- write contention --------------------------------------------------------


def test_write_contention_attack_spawns_and_stops_clients():
    cluster, plane = make_plane(seed=11)
    fault = WriteContentionAttack(keys=("k0",), interval=0.02, clients=2)
    plane.inject(fault)
    cluster.env.run(until=cluster.env.now + 0.5)
    plane.heal(fault)
    cluster.env.run(until=cluster.env.now + 5.0)
    states = plane.attack_states
    assert len(states) == 2
    assert all(state.done for state in states)
    assert sum(state.completed for state in states) > 0


# -- schedules ---------------------------------------------------------------


def test_schedule_composition_and_validation():
    a = Schedule.at(0.1, ReplicaCrash("replica-1"), duration=1.0)
    b = Schedule.at(0.2, EnclaveReboot("replica-0"))
    combined = a + b
    assert [event.at for event in combined.events] == [0.1, 0.2]

    with pytest.raises(ValueError):
        FaultEvent(-1.0, ReplicaCrash("replica-1"))
    with pytest.raises(ValueError):
        FaultEvent(0.0, ReplicaCrash("replica-1"), duration=0.0)
    with pytest.raises(ValueError):
        # Instantaneous faults cannot be given a heal window.
        FaultEvent(0.0, EnclaveReboot("replica-0"), duration=1.0)
    with pytest.raises(ValueError):
        # Attack traffic must always be bounded.
        FaultEvent(0.0, WriteContentionAttack(keys=("k",)))


def test_drive_executes_schedule_at_the_right_times():
    cluster, plane = make_plane(seed=12)
    plane.drive(Schedule.at(0.5, ReplicaCrash("replica-1"), duration=1.0))
    cluster.env.run(until=0.4)
    assert not cluster.host_of("replica-1")._stopped
    cluster.env.run(until=1.0)
    assert cluster.host_of("replica-1")._stopped
    cluster.env.run(until=2.0)
    assert not cluster.host_of("replica-1")._stopped
    assert [(round(e["t"], 3), e["event"]) for e in plane.log] == [
        (0.5, "inject"),
        (1.5, "heal"),
    ]


# -- totality ----------------------------------------------------------------


def _fault_classes():
    return [
        cls for _, cls in inspect.getmembers(model, inspect.isclass)
        if issubclass(cls, Fault) and cls.__module__ == model.__name__
    ]


def _concrete(cls):
    return not cls.__subclasses__()


def test_every_fault_kind_is_wired_in_its_own_class():
    """A new kind cannot be half-wired: it stages itself, a wire fault
    reports under a stat the campaign counts, and its description names
    exactly its dataclass fields (never a ClassVar)."""
    _, plane = make_plane(seed=13)
    stats = plane.wire_hit_counts()
    concrete = [cls for cls in _fault_classes() if _concrete(cls)]
    assert len(concrete) >= 10
    for cls in concrete:
        assert cls.inject is not Fault.inject, cls.__name__
        if issubclass(cls, WireFault):
            assert cls.hit_stat in stats, cls.__name__
    examples = [
        ReplicaCrash("replica-1"), ReplicaRestart("replica-1"),
        EnclaveReboot("replica-0"), NetworkPartition((("a",), ("b",))),
        MessageDelay(), MessageLoss(), MessageCorrupt(), HostTamper("replica-0"),
        WriteContentionAttack(keys=("k",)), model.ShardMigration(),
    ]
    assert {type(fault) for fault in examples} == set(concrete)
    for fault in examples:
        described = fault.describe()
        names = [f.name for f in dataclasses.fields(fault)]
        assert described.count("=") == len(names), described
        assert all(f"{name}=" in described for name in names), described
