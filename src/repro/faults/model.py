"""Declarative fault types (the vocabulary of the chaos campaigns).

Each fault is a frozen dataclass naming *what* goes wrong; the fault
plane (:mod:`repro.faults.injector`) knows *how* to stage it against a
running cluster. Faults that describe a condition rather than an event
(partitions, wire rules, attack traffic) are revertible: the schedule
injects them for a window and heals them afterwards.

The catalogue mirrors the paper's threat model:

* :class:`ReplicaCrash` / :class:`ReplicaRestart` — crash faults of
  whole servers (replica + Troxy), Section III-D.
* :class:`EnclaveReboot` — the rollback attack of Section IV-B: volatile
  enclave state (fast-read cache, TLS sessions) is lost, sealed trusted
  counters must survive.
* :class:`NetworkPartition` — link-level isolation of replica groups.
* :class:`MessageDelay` / :class:`MessageLoss` / :class:`MessageCorrupt`
  — bursts of degraded links (performance attacks, Section VI-C3).
* :class:`HostTamper` — the untrusted replica part mangling sealed
  replies (the "bypassing the Troxy" attack, Section VI-B).
* :class:`WriteContentionAttack` — adversarial write traffic against hot
  keys, driving fast-read conflicts until the conflict monitor falls
  back to total order (Section VI-C3).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Fault:
    """Base class: a declarative description of one fault."""

    def inject(self, plane) -> None:
        raise NotImplementedError

    def heal(self, plane) -> None:
        """Revert the fault; no-op for instantaneous faults."""

    @property
    def revertible(self) -> bool:
        return type(self).heal is not Fault.heal

    def describe(self) -> str:
        params = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in getattr(self, "__dataclass_fields__", {})
        )
        return f"{type(self).__name__}({params})"


@dataclass(frozen=True)
class ReplicaCrash(Fault):
    """Crash one server (replica plus co-located Troxy), Section III-D.

    Scheduled with a duration, the crash heals into a restart (the
    server rejoins via state transfer).
    """

    replica: str

    def inject(self, plane) -> None:
        plane.crash(self.replica)

    def heal(self, plane) -> None:
        plane.restart(self.replica)


@dataclass(frozen=True)
class ReplicaRestart(Fault):
    """Recover a previously crashed server (explicit restart event)."""

    replica: str

    def inject(self, plane) -> None:
        plane.restart(self.replica)


@dataclass(frozen=True)
class EnclaveReboot(Fault):
    """Power-cycle/rollback attack on one Troxy enclave (Section IV-B).

    Volatile state — the fast-read cache and installed client sessions —
    is wiped; the plane snapshots the replica's sealed counters before
    the reboot so the counter-monotonicity invariant can later prove no
    rollback happened.
    """

    replica: str

    def inject(self, plane) -> None:
        plane.reboot_enclave(self.replica)


@dataclass(frozen=True)
class NetworkPartition(Fault):
    """Cut every link between the listed node groups (bidirectional).

    Nodes not named in any group are unaffected. Healing restores all
    cut links.
    """

    groups: tuple[tuple[str, ...], ...]

    def inject(self, plane) -> None:
        plane.partition(self.groups)

    def heal(self, plane) -> None:
        plane.heal_partition(self.groups)


@dataclass(frozen=True)
class _WireFault(Fault):
    """Shared shape of the wire-rule faults: a (src, dst, payload) match.

    ``src``/``dst`` are glob patterns over node names; ``payload_types``
    restricts the rule to payload class names (empty = any payload).
    """

    src: str = "*"
    dst: str = "*"
    payload_types: tuple[str, ...] = ()

    def heal(self, plane) -> None:
        plane.remove_wire_rules(self)


@dataclass(frozen=True)
class MessageDelay(_WireFault):
    """Add ``delay`` (plus uniform ``jitter``) seconds to matching sends."""

    delay: float = 0.05
    jitter: float = 0.0

    def inject(self, plane) -> None:
        plane.add_delay_rule(self)


@dataclass(frozen=True)
class MessageLoss(_WireFault):
    """Drop matching sends with ``probability`` (1.0 = black-hole)."""

    probability: float = 0.2

    def inject(self, plane) -> None:
        plane.add_loss_rule(self)


@dataclass(frozen=True)
class MessageCorrupt(_WireFault):
    """Corrupt matching payloads in flight with ``probability``.

    Sealed envelopes get a flipped body (authentication fails at the
    receiver); bare protocol messages are replaced by unparseable
    garbage of the same wire size.
    """

    probability: float = 1.0

    def inject(self, plane) -> None:
        plane.add_corrupt_rule(self)


@dataclass(frozen=True)
class HostTamper(Fault):
    """The untrusted host of ``replica`` forges results inside sealed
    replies to clients (Section VI-B). The Troxy's seal makes the
    tampering detectable; legacy clients see a corrupted channel and
    fail over. ``count`` limits how many replies are mangled (0 = every
    reply while the fault is active).
    """

    replica: str
    forged_result: bytes = b"\xffforged"
    count: int = 1

    def inject(self, plane) -> None:
        plane.add_tamper_rule(self)

    def heal(self, plane) -> None:
        plane.remove_wire_rules(self)


@dataclass(frozen=True)
class WriteContentionAttack(Fault):
    """Adversarial clients hammering writes at hot keys (Section VI-C3).

    Drives fast-read conflicts until the conflict monitor switches the
    Troxy to total-order mode; healing stops the attack traffic so the
    monitor's probing can switch back.
    """

    keys: tuple[str, ...]
    interval: float = 0.005  # seconds between attack writes (per client)
    clients: int = 1

    def inject(self, plane) -> None:
        plane.start_write_attack(self)

    def heal(self, plane) -> None:
        plane.stop_write_attack(self)


@dataclass(frozen=True)
class ShardMigration(Fault):
    """Start a live shard handoff (docs/SHARDING.md) mid-campaign.

    Moves ``fraction`` of the source group's ring tokens to the
    destination group while the workload keeps running — the migration
    itself is the fault surface: its freeze window, fenced state
    transfer, and ring cut-over run concurrently with whatever other
    faults the schedule stages (partitions, leader crashes, write
    contention). Only meaningful on sharded clusters; injection fails
    on a single-group deployment.
    """

    src: str = "g0"
    dst: str = "g1"
    fraction: float = 0.5

    def inject(self, plane) -> None:
        plane.start_migration(self)
