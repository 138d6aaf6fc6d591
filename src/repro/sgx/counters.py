"""TrInc-style trusted monotonic counters.

Hybster's hybrid fault model rests on a tiny trusted subsystem that
binds each protocol message to a unique, monotonically increasing
counter value. A Byzantine replica can *stop* counting but can never
produce two different messages certified with the same counter value —
that is what lets the protocol run with 2f+1 replicas.

Certificates are real HMACs under a group key provisioned to every
replica's trusted subsystem (via attestation), so verification by other
replicas is genuine. Counter values are persisted through
:class:`repro.sgx.sealed.SealedStorage`, making them survive enclave
reboots (rollback protection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.primitives import MacKey
from .sealed import SealedStorage


class CounterError(Exception):
    """Monotonicity or authentication failure in the trusted subsystem."""


@dataclass(slots=True, init=False, unsafe_hash=True)
class CounterCertificate:
    """Attestation that message ``digest`` owns counter slot ``value``."""

    subsystem_id: str
    counter_name: str
    value: int
    digest: bytes
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, subsystem_id, counter_name, value, digest, tag):
        self.subsystem_id = subsystem_id
        self.counter_name = counter_name
        self.value = value
        self.digest = digest
        self.tag = tag
        self.wire_size = len(subsystem_id) + len(counter_name) + 8 + len(digest) + len(tag)


def _auth_input(subsystem_id: str, counter_name: str, value: int, digest: bytes) -> bytes:
    return b"|".join(
        [subsystem_id.encode(), counter_name.encode(), value.to_bytes(8, "big"), digest]
    )


class TrustedCounterSubsystem:
    """The per-replica trusted counter service (lives in the enclave)."""

    def __init__(self, subsystem_id: str, group_key: MacKey, storage: Optional[SealedStorage] = None):
        self.subsystem_id = subsystem_id
        self._group_key = group_key
        self._storage = storage
        self._counters: dict[str, int] = {}
        if storage is not None:
            saved = storage.unseal("trusted-counters")
            if saved is not None:
                self._counters = _decode_counters(saved)

    def create(self, counter_name: str) -> None:
        """Create a fresh counter at value 0; recreating is forbidden."""
        if counter_name in self._counters:
            raise CounterError(f"counter {counter_name!r} already exists")
        self._counters[counter_name] = 0
        self._persist()

    def exists(self, counter_name: str) -> bool:
        return counter_name in self._counters

    def snapshot(self) -> dict[str, int]:
        """Current value of every counter.

        Rollback-protection checks compare snapshots taken around an
        enclave reboot: sealed counters must never move backwards.
        """
        return dict(self._counters)

    def current(self, counter_name: str) -> int:
        try:
            return self._counters[counter_name]
        except KeyError:
            raise CounterError(f"unknown counter {counter_name!r}") from None

    def certify_next(self, counter_name: str, digest: bytes) -> CounterCertificate:
        """Advance the counter by one and bind the new value to ``digest``."""
        value = self.current(counter_name) + 1
        return self._certify(counter_name, value, digest)

    def certify_at(self, counter_name: str, value: int, digest: bytes) -> CounterCertificate:
        """Advance the counter *to* ``value`` (must be strictly higher).

        Skipping values is allowed (TrInc semantics); certifying at or
        below the current value never is — that is the whole point.
        """
        if value <= self.current(counter_name):
            raise CounterError(
                f"counter {counter_name!r} cannot move from "
                f"{self.current(counter_name)} to {value}"
            )
        return self._certify(counter_name, value, digest)

    def _certify(self, counter_name: str, value: int, digest: bytes) -> CounterCertificate:
        self._counters[counter_name] = value
        self._persist()
        tag = self._group_key.sign(_auth_input(self.subsystem_id, counter_name, value, digest))
        return CounterCertificate(self.subsystem_id, counter_name, value, digest, tag)

    def verify(self, cert: CounterCertificate) -> bool:
        """Check a certificate produced by any subsystem in the group."""
        expected = _auth_input(cert.subsystem_id, cert.counter_name, cert.value, cert.digest)
        return self._group_key.verify(expected, cert.tag)

    def _persist(self) -> None:
        if self._storage is not None:
            self._storage.seal("trusted-counters", _encode_counters(self._counters))


def _encode_counters(counters: dict[str, int]) -> bytes:
    # Length-prefixed records: counter names may contain any characters.
    parts = []
    for name, value in sorted(counters.items()):
        name_bytes = name.encode("utf-8")
        parts.append(len(name_bytes).to_bytes(4, "big"))
        parts.append(name_bytes)
        parts.append(value.to_bytes(8, "big"))
    return b"".join(parts)


def _decode_counters(blob: bytes) -> dict[str, int]:
    out: dict[str, int] = {}
    offset = 0
    while offset < len(blob):
        name_len = int.from_bytes(blob[offset: offset + 4], "big")
        offset += 4
        name = blob[offset: offset + name_len].decode("utf-8")
        offset += name_len
        out[name] = int.from_bytes(blob[offset: offset + 8], "big")
        offset += 8
    return out


#: Sealed counter backing audit-ledger checkpoints (repro.obs.audit).
LEDGER_COUNTER = "audit-ledger"


def certify_ledger_checkpoint(
    subsystem: TrustedCounterSubsystem, seq: int, head: bytes
) -> CounterCertificate:
    """Trusted-side body of the ``certify_ledger`` ecall.

    Binds checkpoint number ``seq`` to the audit ledger's chain-head
    digest under the sealed ``audit-ledger`` counter. The counter is
    created on first use, and every later checkpoint must certify a
    strictly higher sequence number (TrInc fencing): the sealed value
    survives enclave reboots, so a host that rewinds or rewrites its
    ledger prefix can never re-certify an old checkpoint number — the
    gap itself becomes evidence.
    """
    if not subsystem.exists(LEDGER_COUNTER):
        subsystem.create(LEDGER_COUNTER)
    return subsystem.certify_at(LEDGER_COUNTER, seq, head)


#: Sealed counter fencing read-lease installs (repro.troxy.lease).
LEASE_COUNTER = "troxy-lease"


def certify_lease(
    subsystem: TrustedCounterSubsystem, epoch: int, digest: bytes
) -> CounterCertificate:
    """Trusted-side body of the ``install_lease`` ecall.

    Binds lease ``epoch`` to the grant digest under the sealed
    ``troxy-lease`` counter. Epochs are derived from the agreement
    sequence number that carried the grant, so they are strictly
    increasing in the order the enclave installs them; the sealed value
    survives enclave reboots, which is what makes lease reads safe
    against rollback: a power-cycled enclave loses its lease table, and
    a replayed grant certifies at or below the sealed value and is
    rejected (:class:`CounterError`) — a rolled-back Troxy can never
    resurrect a lease and serve a stale local read.
    """
    if not subsystem.exists(LEASE_COUNTER):
        subsystem.create(LEASE_COUNTER)
    return subsystem.certify_at(LEASE_COUNTER, epoch, digest)


def burn_lease_epoch(subsystem: TrustedCounterSubsystem, epoch: int) -> bool:
    """Fence off ``epoch`` without installing anything.

    Used when a revocation arrives for a grant the enclave never saw
    (lost, still in flight, or wiped by a reboot): burning the epoch
    guarantees the late grant can never install afterwards. Returns
    whether the counter actually moved — an epoch at or below the sealed
    value is already fenced and needs no burn.
    """
    if not subsystem.exists(LEASE_COUNTER):
        subsystem.create(LEASE_COUNTER)
    if epoch <= subsystem.current(LEASE_COUNTER):
        return False
    subsystem.certify_at(LEASE_COUNTER, epoch, b"lease-burn")
    return True
