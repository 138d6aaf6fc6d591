"""Tamper-evident accountability ledgers with automated blame attribution.

Every node keeps a hash-chained ledger of the protocol messages it sent
and received (:mod:`.ledger`), periodically checkpointed through the
``certify_ledger`` ecall so the sealed ``audit-ledger`` counter fences
the chain head (:mod:`repro.sgx.counters`). When a health detector
fires, the :class:`~repro.obs.audit.auditor.Auditor` reconciles the
ledgers across replicas and emits a signed evidence bundle localizing
the culprit — equivocation, tamper, omission (with partition-aware
hedging), or adversarial write contention. ``python -m repro.faults
--plane audit`` scores blame accuracy against the fault catalogue's
injected ground truth; see docs/OBSERVABILITY.md ("Accountability &
audit").
"""

from .auditor import Auditor, Verdict
from .bundle import build_bundle, verify_bundle
from .ledger import LedgerCheckpoint, LedgerEntry, MessageLedger, verify_ledger_dict
from .plane import AuditPlane, LedgerProbes, write_audit_report

__all__ = [
    "AuditPlane",
    "Auditor",
    "LedgerCheckpoint",
    "LedgerEntry",
    "LedgerProbes",
    "MessageLedger",
    "Verdict",
    "build_bundle",
    "verify_bundle",
    "verify_ledger_dict",
    "write_audit_report",
]
