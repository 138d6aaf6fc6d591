"""Fault types (the vocabulary of the chaos campaigns).

Each fault is a frozen dataclass naming *what* goes wrong, and it is
the one place that knows its kind: ``inject(plane)`` / ``heal(plane)``
stage it against the cluster the :class:`~repro.faults.injector.FaultPlane`
wraps, and ``ground_truth(plane)`` says whom a correct auditor must
blame for it. Faults that describe a condition rather than an event
(partitions, wire faults, attack traffic) are revertible: the schedule
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
* :class:`ShardMigration` — a live shard handoff as the fault surface.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from fnmatch import fnmatchcase
from itertools import product
from typing import ClassVar

from ..apps.base import Payload
from ..apps.kvstore import put
from ..hybster.messages import Reply, Request
from ..hybster.secure import SecureEnvelope


@dataclass(frozen=True)
class Garbage:
    """An unparseable blob standing in for corrupted wire bytes."""

    wire_size: int


@dataclass
class AttackState:
    """Progress of one adversarial write client."""

    client_id: str
    issued: int = 0
    completed: int = 0
    stop: bool = False
    done: bool = False


@dataclass(frozen=True)
class Fault:
    """Base class: one fault, which stages itself against a plane."""

    def inject(self, plane) -> None:
        raise NotImplementedError

    def heal(self, plane) -> None:
        """Revert the fault; no-op for instantaneous faults."""

    @property
    def revertible(self) -> bool:
        return type(self).heal is not Fault.heal

    def ground_truth(self, plane) -> dict | None:
        """Audit blame entry of this fault, read after the run.

        The audit plane's ground truth (docs/OBSERVABILITY.md): *who* a
        correct auditor must blame. ``required`` marks faults it must
        localize; link-level entries only whitelist link suspicion
        (omission evidence cannot tell a quiet link from a lossy one).
        Benign faults and wire faults that never fired have none.
        """
        return None

    def describe(self) -> str:
        params = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in dataclasses.fields(self)
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
        plane.server(self.replica).stop()

    def heal(self, plane) -> None:
        plane.server(self.replica).restart()

    def ground_truth(self, plane) -> dict:
        return {"blame": "node", "targets": [self.replica], "required": True}


@dataclass(frozen=True)
class ReplicaRestart(Fault):
    """Recover a previously crashed server (explicit restart event)."""

    replica: str

    def inject(self, plane) -> None:
        plane.server(self.replica).restart()


@dataclass(frozen=True)
class EnclaveReboot(Fault):
    """Power-cycle/rollback attack on one Troxy enclave (Section IV-B).

    Volatile state — the fast-read cache and installed client sessions —
    is wiped; the replica's sealed counters are snapshotted right before
    the reboot so the counter-monotonicity invariant can later prove no
    rollback happened.
    """

    replica: str

    def inject(self, plane) -> None:
        host = plane.host(self.replica)
        if host is None:
            raise ValueError(f"{self.replica} has no Troxy enclave to reboot")
        baseline = plane.replica(self.replica).counters.snapshot()
        plane.counter_baselines.setdefault(self.replica, []).append(baseline)
        host.enclave.reboot()


@dataclass(frozen=True)
class NetworkPartition(Fault):
    """Cut every link between the listed node groups (bidirectional).

    Nodes not named in any group are unaffected. Healing restores the
    links this partition cut, except those another active partition
    still cuts.
    """

    groups: tuple[tuple[str, ...], ...]

    def _pairs(self):
        for i, group_a in enumerate(self.groups):
            for group_b in self.groups[i + 1:]:
                yield from product(group_a, group_b)

    def _links(self) -> Counter:
        return Counter(link for a, b in self._pairs() for link in ((a, b), (b, a)))

    def inject(self, plane) -> None:
        plane.cut += self._links()

    def heal(self, plane) -> None:
        plane.cut -= self._links()

    def ground_truth(self, plane) -> dict:
        pairs = sorted(sorted(pair) for pair in self._pairs())
        return {"blame": "link", "pairs": pairs, "required": False}


@dataclass(frozen=True)
class WireFault(Fault):
    """A fault on the send path: while active, the plane's send filter
    offers it every matching attempt; ``apply`` says whether it hit, and
    hits count under ``hit_stat`` (campaign ``wire_hits``)."""

    hit_stat: ClassVar[str]

    def inject(self, plane) -> None:
        plane.wire.append(self)

    def heal(self, plane) -> None:
        plane.wire.remove(self)

    def matches(self, attempt) -> bool:
        raise NotImplementedError

    def apply(self, attempt, plane) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class _LinkFault(WireFault):
    """Shared shape of the link faults: a (src, dst, payload) match.

    ``src``/``dst`` are glob patterns over node names; ``payload_types``
    restricts the fault to payload class names (empty = any payload).
    """

    src: str = "*"
    dst: str = "*"
    payload_types: tuple[str, ...] = ()

    def matches(self, attempt) -> bool:
        return _glob_match(attempt, self.src, self.dst, self.payload_types)


def _glob_match(attempt, src: str, dst: str, payload_types: tuple[str, ...]) -> bool:
    return (
        fnmatchcase(attempt.src, src)
        and fnmatchcase(attempt.dst, dst)
        and (not payload_types or type(attempt.payload).__name__ in payload_types)
    )


def _fires(probability: float, plane) -> bool:
    return probability >= 1.0 or plane.rng.random() < probability


@dataclass(frozen=True)
class MessageDelay(_LinkFault):
    """Add ``delay`` (plus uniform ``jitter``) seconds to matching sends:
    they arrive late, which is neither a drop nor a forgery."""

    hit_stat: ClassVar[str] = "delayed"
    delay: float = 0.05
    jitter: float = 0.0

    def apply(self, attempt, plane) -> bool:
        extra = self.delay
        if self.jitter:
            extra += plane.rng.uniform(0.0, self.jitter)
        attempt.extra_delay += extra
        return True


@dataclass(frozen=True)
class MessageLoss(_LinkFault):
    """Drop matching sends with ``probability`` (1.0 = black-hole)."""

    hit_stat: ClassVar[str] = "dropped"
    probability: float = 0.2

    def apply(self, attempt, plane) -> bool:
        attempt.drop = _fires(self.probability, plane)
        return attempt.drop

    def ground_truth(self, plane) -> dict | None:
        if not plane.hits[self]:
            return None
        return {"blame": "link", "src": self.src, "dst": self.dst, "required": False}


@dataclass(frozen=True)
class MessageCorrupt(_LinkFault):
    """Corrupt matching payloads in flight with ``probability``.

    Sealed envelopes get a flipped body (authentication fails at the
    receiver); bare protocol messages are replaced by unparseable
    garbage of the same wire size.
    """

    hit_stat: ClassVar[str] = "corrupted"
    probability: float = 1.0

    def apply(self, attempt, plane) -> bool:
        hit = _fires(self.probability, plane)
        if hit:
            attempt.payload = _corrupted(attempt.payload)
        return hit

    def ground_truth(self, plane) -> dict | None:
        if not plane.hits[self]:
            return None
        return {"blame": "tamper", "src": self.src, "required": True}


def _corrupted(payload):
    """Flip payload content the way a man-on-the-wire could."""
    if isinstance(payload, SecureEnvelope):
        body = payload.body
        if isinstance(body, Reply):
            forged = dataclasses.replace(
                body, result=Payload(b"\xff" + body.result.content)
            )
        elif isinstance(body, Request):
            forged = dataclasses.replace(body, client_id=body.client_id + "?")
        else:
            return Garbage(payload.wire_size)
        # The TLS record still seals the original body's digest, so
        # the receiver's open_body() detects the mismatch.
        return SecureEnvelope(payload.record, forged)
    return Garbage(getattr(payload, "wire_size", 64))


@dataclass(frozen=True)
class HostTamper(WireFault):
    """The untrusted host of ``replica`` forges results inside sealed
    replies to clients (Section VI-B). The Troxy's seal makes the
    tampering detectable; legacy clients see a corrupted channel and
    fail over. ``count`` limits how many replies are mangled (0 = every
    reply while the fault is active).
    """

    hit_stat: ClassVar[str] = "tampered"
    replica: str
    forged_result: bytes = b"\xffforged"
    count: int = 1

    def inject(self, plane) -> None:
        super().inject(plane)
        plane.budgets[self] += self.count

    def heal(self, plane) -> None:
        super().heal(plane)
        plane.budgets -= Counter({self: self.count})

    def matches(self, attempt) -> bool:
        return _glob_match(attempt, self.replica, "client-machine-*", ("SecureEnvelope",))

    def apply(self, attempt, plane) -> bool:
        envelope = attempt.payload
        if not isinstance(envelope.body, Reply):
            return False
        if self.count > 0:
            if not plane.budgets[self]:
                return False
            plane.budgets[self] -= 1
        forged = dataclasses.replace(envelope.body, result=Payload(self.forged_result))
        attempt.payload = SecureEnvelope(envelope.record, forged)
        return True

    def ground_truth(self, plane) -> dict | None:
        if not plane.hits[self]:
            return None
        return {"blame": "tamper", "targets": [self.replica], "required": True}


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
        states = plane.attacks[self] = []
        for _ in range(self.clients):
            client = plane.cluster.new_client(request_timeout=2.0)
            if plane.recorder is not None:
                client = plane.recorder.wrap(client)
            state = AttackState(client_id=client.client_id)
            states.append(state)
            plane.env.process(
                self._loop(plane.env, client, state),
                name=f"fault-plane:attack-{state.client_id}",
            )

    def heal(self, plane) -> None:
        for state in plane.attacks.get(self, ()):
            state.stop = True

    def _loop(self, env, client, state: AttackState):
        n = 0
        while not state.stop:
            key = self.keys[n % len(self.keys)]
            value = f"{state.client_id}/attack-{n}".encode()
            state.issued += 1
            yield from client.invoke(put(key, value))
            state.completed += 1
            n += 1
            if state.stop:
                break
            yield env.timeout(self.interval)
        state.done = True

    def ground_truth(self, plane) -> dict | None:
        clients = sorted(s.client_id for s in plane.attacks.get(self, ()))
        if not clients:
            return None
        return {"blame": "client", "targets": clients, "required": True}


@dataclass(frozen=True)
class ShardMigration(Fault):
    """Start a live shard handoff (docs/SHARDING.md) mid-campaign.

    Moves ``fraction`` of the source group's ring tokens to the
    destination group while the workload keeps running — the migration
    itself is the fault surface: its freeze window, fenced state
    transfer, and ring cut-over run concurrently with whatever other
    faults the schedule stages (partitions, leader crashes, write
    contention). Only meaningful on sharded clusters; injection fails
    on a single-group deployment. Campaign invariants read the
    migrator's reports, completed or not.
    """

    src: str = "g0"
    dst: str = "g1"
    fraction: float = 0.5

    def inject(self, plane) -> None:
        migrator = plane.cluster.migrator
        if migrator is None:
            raise ValueError("ShardMigration requires a sharded cluster (shards >= 2)")
        plane.env.process(
            migrator.migrate(self.src, self.dst, fraction=self.fraction),
            name=f"fault-plane:migrate-{self.src}-{self.dst}",
        )
