"""Timed fault schedules and the named scenario catalogue.

A :class:`Schedule` is a list of :class:`FaultEvent`\\ s — *inject fault
F at time T, heal it D seconds later* — that the fault plane replays
against a running cluster. Schedules compose with ``+`` so complex
scenarios are built from reusable pieces.

A :class:`Scenario` bundles a schedule with the client workload that
runs underneath it and the simulated horizon by which everything must
have completed (the liveness invariant). The built-in catalogue in
:data:`SCENARIOS` covers the paper's fault-handling claims one by one;
``python -m repro.faults --list`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hybster.config import LeaseConfig
from ..troxy.monitor import ConflictMonitor
from .model import (
    EnclaveReboot,
    Fault,
    HostTamper,
    MessageCorrupt,
    MessageDelay,
    MessageLoss,
    NetworkPartition,
    ReplicaCrash,
    ShardMigration,
    WriteContentionAttack,
)


@dataclass(frozen=True)
class FaultEvent:
    """Inject ``fault`` at ``at`` seconds; heal after ``duration`` if set."""

    at: float
    fault: Fault
    duration: Optional[float] = None

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"negative injection time: {self.at}")
        if self.duration is not None:
            if self.duration <= 0:
                raise ValueError(f"non-positive duration: {self.duration}")
            if not self.fault.revertible:
                raise ValueError(
                    f"{type(self.fault).__name__} is instantaneous; "
                    "scheduling it with a duration is meaningless"
                )
        if isinstance(self.fault, WriteContentionAttack) and self.duration is None:
            raise ValueError("WriteContentionAttack must be scheduled with a duration")


@dataclass(frozen=True)
class Schedule:
    """An ordered collection of fault events."""

    events: tuple[FaultEvent, ...] = ()

    def __add__(self, other: "Schedule") -> "Schedule":
        return Schedule(self.events + other.events)

    @staticmethod
    def at(at: float, fault: Fault, duration: Optional[float] = None) -> "Schedule":
        return Schedule((FaultEvent(at, fault, duration),))

    @staticmethod
    def of(*events: FaultEvent) -> "Schedule":
        return Schedule(tuple(events))


@dataclass(frozen=True)
class WorkloadSpec:
    """The client workload running underneath a fault schedule."""

    clients: int = 3
    ops_per_client: int = 14
    keys: tuple[str, ...] = ("k0", "k1", "k2", "k3")
    write_ratio: float = 0.35
    think_time: float = 0.05  # pacing gap between one client's ops
    request_timeout: float = 1.0  # legacy-client retransmission timeout


@dataclass(frozen=True)
class Scenario:
    """One named chaos scenario: schedule + workload + horizon."""

    name: str
    description: str
    paper_ref: str
    schedule: Schedule
    workload: WorkloadSpec = WorkloadSpec()
    horizon: float = 45.0  # sim-seconds before invariants are evaluated
    cluster_kwargs: tuple[tuple[str, object], ...] = ()
    #: minimum agreement-group count this scenario needs (docs/SHARDING.md);
    #: the campaign runner builds max(scenario.shards, CLI --shards) groups.
    shards: int = 1

    def build_kwargs(self) -> dict:
        return dict(self.cluster_kwargs)


def _contention_monitor() -> ConflictMonitor:
    """Monitor variant that samples misses too: under sustained write
    contention every read misses on a freshly invalidated entry, which is
    the signal the paper's adaptive switch reacts to (Section VI-C3)."""
    return ConflictMonitor(count_misses=True)


def _catalogue() -> dict[str, Scenario]:
    replica_links = {"src": "replica-*", "dst": "replica-*"}
    scenarios = [
        Scenario(
            name="healthy_control",
            description="No faults; establishes the invariant baseline.",
            paper_ref="VI-C1 (normal operation)",
            schedule=Schedule(),
            horizon=30.0,
        ),
        Scenario(
            name="troxy_crash_failover",
            description=(
                "A follower's server (replica + Troxy) crashes mid-workload "
                "and restarts later; clients fail over like against any "
                "crashed web server."
            ),
            paper_ref="III-D (fault handling)",
            schedule=Schedule.at(0.25, ReplicaCrash("replica-1"), duration=6.0),
        ),
        Scenario(
            name="leader_crash_view_change",
            description=(
                "The view-0 leader dies for good; a view change elects a new "
                "leader and service continues transparently."
            ),
            paper_ref="III-D (fault handling)",
            schedule=Schedule.at(0.25, ReplicaCrash("replica-0")),
            horizon=60.0,
        ),
        Scenario(
            name="crash_restart_recovery",
            description=(
                "A follower crashes briefly and rejoins via state transfer; "
                "its rebuilt state must stay consistent."
            ),
            paper_ref="III-D (fault handling)",
            schedule=Schedule.at(0.2, ReplicaCrash("replica-2"), duration=3.0),
        ),
        Scenario(
            name="enclave_reboot_rollback",
            description=(
                "Rollback attack: two Troxy enclaves are power-cycled. The "
                "fast-read cache starts cold, sealed counters must never "
                "regress."
            ),
            paper_ref="IV-B (cache recovery, trusted counters)",
            schedule=(
                Schedule.at(0.3, EnclaveReboot("replica-0"))
                + Schedule.at(0.8, EnclaveReboot("replica-1"))
            ),
        ),
        Scenario(
            name="partition_minority",
            description=(
                "One replica is partitioned away for a window; the remaining "
                "2f replicas keep the service live and the victim catches up "
                "after the heal."
            ),
            paper_ref="III-D (fault handling)",
            schedule=Schedule.at(
                0.25,
                NetworkPartition((("replica-2",), ("replica-0", "replica-1"))),
                duration=4.0,
            ),
        ),
        Scenario(
            name="message_delay_burst",
            description=(
                "Replica-to-replica links gain 80±40 ms for two seconds "
                "(performance attack on the ordering path)."
            ),
            paper_ref="VI-C3 (performance attacks)",
            schedule=Schedule.at(
                0.2,
                MessageDelay(delay=0.08, jitter=0.04, **replica_links),
                duration=2.0,
            ),
            horizon=60.0,
        ),
        Scenario(
            name="message_loss_burst",
            description=(
                "Replica-to-replica links drop 25% of traffic for two "
                "seconds; retransmission and refetch paths must recover."
            ),
            paper_ref="VI-C3 (performance attacks)",
            schedule=Schedule.at(
                0.2,
                MessageLoss(probability=0.25, **replica_links),
                duration=2.0,
            ),
            horizon=60.0,
        ),
        Scenario(
            name="reply_corruption",
            description=(
                "Every sealed reply leaving replica-0 for a client machine "
                "is corrupted for 1.5 s; clients must detect the broken "
                "channel and fail over."
            ),
            paper_ref="VI-B (bypassing the Troxy)",
            schedule=Schedule.at(
                0.2,
                MessageCorrupt(
                    src="replica-0",
                    dst="client-machine-*",
                    payload_types=("SecureEnvelope",),
                ),
                duration=1.5,
            ),
        ),
        Scenario(
            name="host_tamper_replies",
            description=(
                "The untrusted host of replica-0 forges the result inside "
                "two sealed replies; the Troxy seal exposes the forgery."
            ),
            paper_ref="VI-B (bypassing the Troxy)",
            schedule=Schedule.at(
                0.25,
                HostTamper("replica-0", forged_result=b"\xffforged", count=2),
                duration=5.0,
            ),
        ),
        Scenario(
            name="write_contention_attack",
            description=(
                "An adversarial client hammers writes at the hottest keys; "
                "the conflict monitor must fall back to total-order mode "
                "instead of livelocking fast reads."
            ),
            paper_ref="VI-C3 (performance attacks)",
            schedule=Schedule.at(
                0.2,
                WriteContentionAttack(keys=("k0", "k1"), interval=0.006),
                duration=1.5,
            ),
            # Read-heavy, tightly paced workload on the attacked keys so
            # each Troxy's monitor accumulates enough fast-read samples
            # to trip the total-order switch during the attack window.
            workload=WorkloadSpec(
                clients=3,
                ops_per_client=40,
                keys=("k0", "k1"),
                write_ratio=0.1,
                think_time=0.01,
            ),
            cluster_kwargs=(("monitor_factory", _contention_monitor),),
        ),
        Scenario(
            name="unresponsive_cache_peer",
            description=(
                "replica-0 never delivers its outgoing cache queries; its "
                "fast reads must time out into the ordered path instead of "
                "hanging, and the repeated timeouts must trip its monitor "
                "into total-order mode."
            ),
            paper_ref="VI-C3 (performance attacks)",
            schedule=Schedule.at(
                0.0,
                MessageLoss(
                    src="replica-0",
                    dst="replica-*",
                    payload_types=("CacheQuery",),
                    probability=1.0,
                ),
                duration=10.0,
            ),
            # Read-heavy so the client contacting replica-0 generates
            # enough timed-out fast reads to reach the switch threshold.
            workload=WorkloadSpec(
                clients=3,
                ops_per_client=30,
                keys=("k0", "k1"),
                write_ratio=0.1,
                think_time=0.01,
            ),
            cluster_kwargs=(("query_timeout", 0.2),),
        ),
        Scenario(
            name="lease_partition_expiry",
            description=(
                "A lease-holding Troxy's server is partitioned away for "
                "far longer than the lease duration: writes parked behind "
                "its leases must proceed once the leases expire on the "
                "shared clock, and the isolated holder must stop serving "
                "lease reads at the same instant — no stale read may "
                "surface after the heal."
            ),
            paper_ref="docs/READS.md (lease expiry under partition)",
            schedule=Schedule.at(
                0.3,
                NetworkPartition((("replica-2",), ("replica-0", "replica-1"))),
                duration=4.0,
            ),
            # Read-heavy so every Troxy (the victim included) holds
            # leases when the partition hits; short leases so several
            # grant/expiry cycles happen inside the isolation window.
            workload=WorkloadSpec(
                clients=3,
                ops_per_client=30,
                keys=("k0", "k1"),
                write_ratio=0.15,
                think_time=0.02,
            ),
            cluster_kwargs=(("leases", LeaseConfig.on(duration=0.3)),),
            horizon=60.0,
        ),
        Scenario(
            name="lease_enclave_reboot",
            description=(
                "Two lease-holding Troxy enclaves are power-cycled mid-"
                "workload (rollback attack): the volatile lease table "
                "dies with the enclave and the sealed lease counter must "
                "fence any replayed grant — a rebooted enclave can never "
                "resurrect a lease it held before the crash."
            ),
            paper_ref="docs/READS.md (sealed-counter fencing)",
            schedule=(
                Schedule.at(0.3, EnclaveReboot("replica-0"))
                + Schedule.at(0.8, EnclaveReboot("replica-1"))
            ),
            workload=WorkloadSpec(
                clients=3,
                ops_per_client=30,
                keys=("k0", "k1"),
                write_ratio=0.15,
                think_time=0.02,
            ),
            cluster_kwargs=(("leases", LeaseConfig.on(duration=1.0)),),
        ),
        Scenario(
            name="lease_migration_freeze",
            description=(
                "A live shard handoff starts while read leases cover the "
                "moving keys: the migration's quiesce step must revoke "
                "every covering lease before state collection, the write "
                "freeze must veto new grants on moving keys, and reads "
                "fall back to the voted path across the cut-over."
            ),
            paper_ref="docs/READS.md + docs/SHARDING.md (freeze vs leases)",
            schedule=Schedule.at(
                0.5, ShardMigration(src="g0", dst="g1", fraction=0.5)
            ),
            workload=WorkloadSpec(
                clients=3,
                ops_per_client=30,
                keys=("k0", "k1", "k2", "k3"),
                write_ratio=0.15,
                think_time=0.02,
            ),
            cluster_kwargs=(("leases", LeaseConfig.on(duration=0.5)),),
            horizon=60.0,
            shards=2,
        ),
        Scenario(
            name="shard_migration_partition",
            description=(
                "A live shard handoff from g0 to g1 starts while a source "
                "follower is partitioned away; the fenced state transfer "
                "must still find f+1 matching snapshots and the workload "
                "must complete across the ring cut-over."
            ),
            paper_ref="docs/SHARDING.md (migration under faults)",
            schedule=(
                Schedule.at(
                    0.2,
                    NetworkPartition((("replica-2",), ("replica-0", "replica-1"))),
                    duration=3.0,
                )
                + Schedule.at(0.5, ShardMigration(src="g0", dst="g1", fraction=0.5))
            ),
            horizon=60.0,
            shards=2,
        ),
        Scenario(
            name="shard_migration_leader_crash",
            description=(
                "The destination group's leader crashes right as a handoff "
                "begins: the ordered state-install must survive the view "
                "change like any client request, and the cut-over completes "
                "against the new leader."
            ),
            paper_ref="docs/SHARDING.md (migration under faults)",
            schedule=(
                Schedule.at(0.3, ShardMigration(src="g0", dst="g1", fraction=0.5))
                + Schedule.at(0.35, ReplicaCrash("g1-replica-0"))
            ),
            horizon=75.0,
            shards=2,
        ),
        Scenario(
            name="shard_rebalance_contention",
            description=(
                "An adversarial client hammers writes at hot keys while "
                "those very keys are being rebalanced between groups: "
                "frozen-window rejects must resolve via client retry with "
                "no write lost or duplicated into the wrong group."
            ),
            paper_ref="docs/SHARDING.md (migration under faults)",
            schedule=(
                Schedule.at(
                    0.2,
                    WriteContentionAttack(keys=("k0", "k1"), interval=0.006),
                    duration=2.0,
                )
                + Schedule.at(0.6, ShardMigration(src="g0", dst="g1", fraction=0.5))
            ),
            # Same read-heavy, tightly paced shape as the plain
            # write_contention_attack scenario, so the contention signals
            # (conflicts, monitor switches) reliably appear while the
            # attacked keys are simultaneously being rebalanced.
            workload=WorkloadSpec(
                clients=3,
                ops_per_client=40,
                keys=("k0", "k1"),
                write_ratio=0.1,
                think_time=0.01,
            ),
            cluster_kwargs=(("monitor_factory", _contention_monitor),),
            horizon=60.0,
            shards=2,
        ),
    ]
    return {scenario.name: scenario for scenario in scenarios}


SCENARIOS: dict[str, Scenario] = _catalogue()


def scenario_names() -> tuple[str, ...]:
    return tuple(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
