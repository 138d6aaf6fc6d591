"""The fault plane: stages declarative faults against a live cluster.

One :class:`FaultPlane` wraps a running deployment (usually from
:func:`repro.deploy.build_troxy`) and owns every
interception point the rest of the library exposes for fault injection:

* the network's send-filter chain (:meth:`Network.add_send_filter`) for
  wire rules — loss, delay, corruption and reply tampering — and for
  partitions, a set of cut links (what only watches the wire subscribes
  to ``net.send`` on the probe bus);
* host/replica ``stop()``/``restart()`` for crash faults;
* enclave ``reboot()`` plus counter snapshots for rollback attacks;
* extra adversarial clients for write-contention attacks.

Everything the plane does is logged with its simulated timestamp
(:attr:`FaultPlane.log`), and all randomness flows through one injected
RNG stream, so campaigns replay byte-identically for a given seed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Optional

from ..apps.base import Payload
from ..apps.kvstore import put
from ..hybster.messages import Reply, Request
from ..hybster.secure import SecureEnvelope
from ..sim.network import SendAttempt
from .model import (
    Fault,
    HostTamper,
    MessageCorrupt,
    MessageDelay,
    MessageLoss,
    WriteContentionAttack,
)
from .schedule import Schedule


@dataclass(frozen=True)
class Garbage:
    """An unparseable blob standing in for corrupted wire bytes."""

    wire_size: int


#: Stat name each wire-rule kind reports its hits under (campaign
#: ``wire_hits``): delayed messages were delivered late, which is
#: neither a drop nor a forgery.
WIRE_HIT_STATS = {
    "delay": "delayed",
    "loss": "dropped",
    "corrupt": "corrupted",
    "tamper": "tampered",
}


@dataclass
class WireRule:
    """One active rule on the network send path."""

    kind: str  # "delay" | "loss" | "corrupt" | "tamper"
    src: str = "*"
    dst: str = "*"
    payload_types: tuple[str, ...] = ()
    delay: float = 0.0
    jitter: float = 0.0
    probability: float = 1.0
    forged_result: bytes = b""
    remaining: Optional[int] = None  # tamper budget; None = unlimited
    origin: Optional[Fault] = None  # fault that installed the rule
    hits: int = 0

    def matches(self, attempt: SendAttempt) -> bool:
        if not fnmatchcase(attempt.src, self.src):
            return False
        if not fnmatchcase(attempt.dst, self.dst):
            return False
        if self.payload_types:
            return type(attempt.payload).__name__ in self.payload_types
        return True


@dataclass
class AttackState:
    """Progress of one adversarial write client."""

    client_id: str
    issued: int = 0
    completed: int = 0
    stop: bool = False
    done: bool = False


class FaultPlane:
    """Fault-injection plane for one running cluster."""

    def __init__(self, cluster, rng: Optional[random.Random] = None, recorder=None):
        self.cluster = cluster
        self.env = cluster.env
        self.net = cluster.net
        self.rng = rng or random.Random(0)
        #: optional HistoryRecorder; attack-client ops are recorded into
        #: it so consistency checks see the adversarial writes too.
        self.recorder = recorder
        self.log: list[dict] = []
        self.rules: list[WireRule] = []
        #: per-replica counter snapshots taken right before each enclave
        #: reboot (input to the counter-monotonicity invariant).
        self.counter_baselines: dict[str, list[dict[str, int]]] = {}
        self.attacks: dict[Fault, list[AttackState]] = {}
        self._retired_hits: dict[Fault, int] = {}
        self._retired_kind_hits: dict[str, int] = {}
        #: (event, t, fault) triples mirroring :attr:`log` but keeping
        #: the fault *objects* — ground-truth plumbing for the audit
        #: plane (campaign blame scoring needs more than describe()).
        self.fault_timeline: list[tuple[str, float, Fault]] = []
        #: (src, dst) links a partition currently cuts, both directions.
        self.cut: set[tuple[str, str]] = set()
        self._filter_installed = False

    # -- cluster access --------------------------------------------------------

    def _replica(self, replica_id: str):
        for replica in self.cluster.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise KeyError(f"unknown replica {replica_id!r}")

    def _host(self, replica_id: str):
        for host in self.cluster.hosts:
            if host.replica_id == replica_id:
                return host
        return None

    # -- entry points ----------------------------------------------------------

    def inject(self, fault: Fault) -> None:
        self._note("inject", fault)
        fault.inject(self)

    def heal(self, fault: Fault) -> None:
        self._note("heal", fault)
        fault.heal(self)

    def drive(self, schedule: Schedule) -> None:
        """Replay ``schedule`` as simulation processes (non-blocking)."""
        for event in schedule.events:
            self.env.process(self._run_event(event), name="fault-plane:event")

    def _run_event(self, event):
        delay = event.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.inject(event.fault)
        if event.duration is not None:
            yield self.env.timeout(event.duration)
            self.heal(event.fault)

    def _note(self, kind: str, fault: Fault) -> None:
        self.log.append({"t": self.env.now, "event": kind, "fault": fault.describe()})
        self.fault_timeline.append((kind, self.env.now, fault))

    # -- crash / restart -------------------------------------------------------

    def crash(self, replica_id: str) -> None:
        host = self._host(replica_id)
        if host is not None:
            host.stop()
        else:
            self._replica(replica_id).stop()

    def restart(self, replica_id: str) -> None:
        host = self._host(replica_id)
        if host is not None:
            host.restart()
        else:
            self._replica(replica_id).restart()

    # -- enclave reboot --------------------------------------------------------

    def reboot_enclave(self, replica_id: str) -> None:
        host = self._host(replica_id)
        if host is None:
            raise ValueError(f"{replica_id} has no Troxy enclave to reboot")
        baseline = self._replica(replica_id).counters.snapshot()
        self.counter_baselines.setdefault(replica_id, []).append(baseline)
        host.enclave.reboot()

    # -- partitions ------------------------------------------------------------

    def _cross_group_pairs(self, groups):
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        yield a, b

    def partition(self, groups) -> None:
        for a, b in self._cross_group_pairs(groups):
            self.cut |= {(a, b), (b, a)}
        self._ensure_filter()

    def heal_partition(self, groups) -> None:
        for a, b in self._cross_group_pairs(groups):
            self.cut -= {(a, b), (b, a)}

    # -- wire rules ------------------------------------------------------------

    def _ensure_filter(self) -> None:
        if not self._filter_installed:
            self.net.add_send_filter(self._filter)
            self._filter_installed = True

    def _add_rule(self, rule: WireRule) -> WireRule:
        self.rules.append(rule)
        self._ensure_filter()
        return rule

    def add_delay_rule(self, fault: MessageDelay) -> WireRule:
        return self._add_rule(WireRule(
            kind="delay", src=fault.src, dst=fault.dst,
            payload_types=fault.payload_types, delay=fault.delay,
            jitter=fault.jitter, origin=fault,
        ))

    def add_loss_rule(self, fault: MessageLoss) -> WireRule:
        return self._add_rule(WireRule(
            kind="loss", src=fault.src, dst=fault.dst,
            payload_types=fault.payload_types, probability=fault.probability,
            origin=fault,
        ))

    def add_corrupt_rule(self, fault: MessageCorrupt) -> WireRule:
        return self._add_rule(WireRule(
            kind="corrupt", src=fault.src, dst=fault.dst,
            payload_types=fault.payload_types, probability=fault.probability,
            origin=fault,
        ))

    def add_tamper_rule(self, fault: HostTamper) -> WireRule:
        return self._add_rule(WireRule(
            kind="tamper", src=fault.replica, dst="client-machine-*",
            payload_types=("SecureEnvelope",),
            forged_result=fault.forged_result,
            remaining=fault.count if fault.count > 0 else None,
            origin=fault,
        ))

    def remove_wire_rules(self, fault: Fault) -> None:
        for rule in self.rules:
            if rule.origin == fault:
                self._retired_hits[fault] = self._retired_hits.get(fault, 0) + rule.hits
                self._retired_kind_hits[rule.kind] = (
                    self._retired_kind_hits.get(rule.kind, 0) + rule.hits
                )
        self.rules = [rule for rule in self.rules if rule.origin != fault]

    def rule_hits(self, fault: Fault) -> int:
        """Total matches (incl. healed rules) of ``fault``'s wire rules."""
        active = sum(rule.hits for rule in self.rules if rule.origin == fault)
        return active + self._retired_hits.get(fault, 0)

    def wire_hit_counts(self) -> dict[str, int]:
        """Per-kind wire-rule hit totals, active rules plus healed ones."""
        counts = {stat: 0 for stat in WIRE_HIT_STATS.values()}
        for rule in self.rules:
            counts[WIRE_HIT_STATS[rule.kind]] += rule.hits
        for kind, hits in self._retired_kind_hits.items():
            counts[WIRE_HIT_STATS[kind]] += hits
        return counts

    def _filter(self, attempt: SendAttempt) -> None:
        for rule in self.rules:
            if attempt.drop or not rule.matches(attempt):
                continue
            if rule.kind == "delay":
                rule.hits += 1
                extra = rule.delay
                if rule.jitter:
                    extra += self.rng.uniform(0.0, rule.jitter)
                attempt.extra_delay += extra
            elif rule.kind == "loss":
                if rule.probability >= 1.0 or self.rng.random() < rule.probability:
                    rule.hits += 1
                    attempt.drop = True
            elif rule.kind == "corrupt":
                if rule.probability >= 1.0 or self.rng.random() < rule.probability:
                    rule.hits += 1
                    attempt.payload = self._corrupted(attempt.payload)
            elif rule.kind == "tamper":
                if rule.remaining == 0:
                    continue
                envelope = attempt.payload
                if not isinstance(envelope, SecureEnvelope) or not isinstance(
                    envelope.body, Reply
                ):
                    continue
                rule.hits += 1
                if rule.remaining is not None:
                    rule.remaining -= 1
                forged = dataclasses.replace(
                    envelope.body, result=Payload(rule.forged_result)
                )
                attempt.payload = SecureEnvelope(envelope.record, forged)
        # After the rules, so a cut message still takes their RNG draws.
        if (attempt.src, attempt.dst) in self.cut:
            attempt.drop = True

    def _corrupted(self, payload):
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

    # -- shard migrations --------------------------------------------------------

    def start_migration(self, fault) -> None:
        """Spawn a live shard handoff (repro.shard) as a background process.

        The migrator records a :class:`~repro.shard.migrate.MigrationReport`
        on the cluster whether or not the handoff completes; campaign
        invariants read it from ``cluster.migrator.reports``.
        """
        migrator = self.cluster.migrator
        if migrator is None:
            raise ValueError("ShardMigration requires a sharded cluster (shards >= 2)")
        self.env.process(
            migrator.migrate(fault.src, fault.dst, fraction=fault.fraction),
            name=f"fault-plane:migrate-{fault.src}-{fault.dst}",
        )

    # -- write-contention attacks ----------------------------------------------

    def start_write_attack(self, fault: WriteContentionAttack) -> None:
        states = []
        for i in range(fault.clients):
            client = self.cluster.new_client(request_timeout=2.0)
            if self.recorder is not None:
                client = self.recorder.wrap(client)
            state = AttackState(client_id=client.client_id)
            states.append(state)
            self.env.process(
                self._attack_loop(client, fault, state),
                name=f"fault-plane:attack-{state.client_id}",
            )
        self.attacks[fault] = states

    def stop_write_attack(self, fault: WriteContentionAttack) -> None:
        for state in self.attacks.get(fault, ()):
            state.stop = True

    def _attack_loop(self, client, fault: WriteContentionAttack, state: AttackState):
        n = 0
        while not state.stop:
            key = fault.keys[n % len(fault.keys)]
            value = f"{state.client_id}/attack-{n}".encode()
            state.issued += 1
            yield from client.invoke(put(key, value))
            state.completed += 1
            n += 1
            if state.stop:
                break
            yield self.env.timeout(fault.interval)
        state.done = True

    @property
    def attack_states(self) -> list[AttackState]:
        return [state for states in self.attacks.values() for state in states]
