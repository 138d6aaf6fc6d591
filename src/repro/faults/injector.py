"""The fault plane: the state faults share while they stage themselves.

One :class:`FaultPlane` wraps a running deployment (usually from
:func:`repro.deploy.build_troxy`). Each fault in :mod:`repro.faults.model`
knows how to stage its own kind; the plane holds only what they share:

* the cluster lookups (:meth:`~FaultPlane.replica`,
  :meth:`~FaultPlane.host`, :meth:`~FaultPlane.server`) crash faults and
  enclave reboots act through;
* the one send filter (:meth:`Network.add_send_filter`), installed at
  construction: it offers every attempt to the active wire faults
  (loss, delay, corruption, reply tampering), then drops it if a
  partition cuts its link (what only watches the wire subscribes to
  ``net.send`` on the probe bus);
* counter snapshots for rollback attacks and the adversarial clients of
  write-contention attacks.

Every inject and heal is recorded with its simulated timestamp
(:attr:`FaultPlane.timeline`), and all randomness flows through one
injected RNG stream, so campaigns replay byte-identically for a given
seed.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional

from ..sim.network import SendAttempt
from .model import AttackState, Fault, WireFault
from .schedule import Schedule


class FaultPlane:
    """Fault-injection plane for one running cluster."""

    def __init__(self, cluster, rng: Optional[random.Random] = None, recorder=None):
        self.cluster = cluster
        self.env = cluster.env
        self.rng = rng or random.Random(0)
        #: optional HistoryRecorder; attack-client ops are recorded into
        #: it so consistency checks see the adversarial writes too.
        self.recorder = recorder
        #: (event, t, fault) for every inject and heal, in order.
        self.timeline: list[tuple[str, float, Fault]] = []
        #: active wire faults in injection order (the send filter's rules).
        self.wire: list[WireFault] = []
        #: matches per wire fault, healed ones included.
        self.hits: Counter = Counter()
        #: forgeries left per HostTamper with a ``count``.
        self.budgets: Counter = Counter()
        #: (src, dst) links cut, counted per active partition cutting them.
        self.cut: Counter = Counter()
        #: per-replica counter snapshots taken right before each enclave
        #: reboot (input to the counter-monotonicity invariant).
        self.counter_baselines: dict[str, list[dict[str, int]]] = {}
        self.attacks: dict[Fault, list[AttackState]] = {}
        cluster.net.add_send_filter(self._filter)

    # -- cluster access --------------------------------------------------------

    def replica(self, replica_id: str):
        for replica in self.cluster.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise KeyError(f"unknown replica {replica_id!r}")

    def host(self, replica_id: str):
        for host in self.cluster.hosts:
            if host.replica_id == replica_id:
                return host
        return None

    def server(self, replica_id: str):
        """The whole server: the Troxy host if there is one, else the replica."""
        host = self.host(replica_id)
        return host if host is not None else self.replica(replica_id)

    # -- entry points ----------------------------------------------------------

    def inject(self, fault: Fault) -> None:
        self.timeline.append(("inject", self.env.now, fault))
        fault.inject(self)

    def heal(self, fault: Fault) -> None:
        self.timeline.append(("heal", self.env.now, fault))
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

    @property
    def log(self) -> list[dict]:
        """The timeline with each fault described (campaign ``fault_log``)."""
        return [
            {"t": t, "event": event, "fault": fault.describe()}
            for event, t, fault in self.timeline
        ]

    # -- the send filter -------------------------------------------------------

    def _filter(self, attempt: SendAttempt) -> None:
        for fault in self.wire:
            if attempt.drop or not fault.matches(attempt):
                continue
            if fault.apply(attempt, self):
                self.hits[fault] += 1
        # After the wire faults, so a cut message still takes their RNG draws.
        if (attempt.src, attempt.dst) in self.cut:
            attempt.drop = True

    def wire_hit_counts(self) -> dict[str, int]:
        """Wire-fault hits per ``hit_stat``, healed faults included."""
        counts = dict.fromkeys(("delayed", "dropped", "corrupted", "tampered"), 0)
        for fault, hits in self.hits.items():
            counts[fault.hit_stat] += hits
        return counts

    @property
    def attack_states(self) -> list[AttackState]:
        return [state for states in self.attacks.values() for state in states]
