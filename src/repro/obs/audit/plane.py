"""The audit plane: health detection + ledgers + blame attribution.

:class:`AuditPlane` composes a health plane, ledger probes and an
:class:`~repro.obs.audit.auditor.Auditor`. The detector→auditor trigger
is explicit: reconciliation runs at ``finalize()`` only when at least
one health event fired during the run, so a healthy cluster pays the
probe cost but never the audit. ``write_audit_report`` adds the signed
evidence bundle (``evidence.json``) and an ``audit.json`` summary next
to the health report and its flight-recorder bundles, so one directory
holds the full forensic story: what was detected, what was recorded
around it, and who is to blame.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..health.plane import HealthPlane, write_health_report
from .auditor import Auditor, Verdict
from .bundle import build_bundle
from .probes import LedgerProbes


class AuditPlane:
    """A health plane (``.health``) + tamper-evident ledgers (``.probes``)
    + automated blame. Whatever it does not define itself (``registry``,
    ``spans``, ``events``, ``flight``, ``health_report``, ``wrap_clients``,
    ...) is its health plane's."""

    def __init__(
        self,
        registry=None,
        window: float = 0.25,
        checkpoint_interval: int = 64,
        auditor: Optional[Auditor] = None,
    ):
        self.health = HealthPlane(registry=registry, window=window)
        self.probes = LedgerProbes(
            registry=self.registry, checkpoint_interval=checkpoint_interval
        )
        self.auditor = auditor or Auditor()
        self.verdicts: list[Verdict] = []
        self._group_key = None
        self._reconciled = False

    def __getattr__(self, name):
        return getattr(self.health, name)

    @property
    def ledgers(self) -> dict:
        return self.probes.ledgers

    def attach(self, cluster) -> "AuditPlane":
        if self.cluster is cluster:
            return self
        self.health.attach(cluster)
        self.probes.attach(cluster)
        self._group_key = cluster.keyring.troxy_group()
        if self.auditor.group_key is None:
            self.auditor.group_key = self._group_key
        return self

    def detach(self) -> "AuditPlane":
        self.health.detach()
        self.probes.detach()
        return self

    def finalize(self) -> int:
        unfinished = self.health.finalize()
        if self.events and not self._reconciled:
            # Detector→auditor trigger: a health event fired, so
            # reconcile the ledgers and attribute blame.
            self._reconciled = True
            replica_ids = frozenset(
                replica.node.name
                for replica in self.cluster.replicas
            )
            self.verdicts = self.auditor.reconcile(
                self.probes.ledgers,
                end_t=self.now,
                replica_ids=replica_ids,
            )
            for verdict in self.verdicts:
                self.registry.counter("audit_verdicts_total", kind=verdict.kind).inc()
        return unfinished

    # -- reporting ------------------------------------------------------------

    def audit_report(self) -> dict:
        """JSON-serialisable blame summary (byte-stable when dumped)."""
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            counts[verdict.kind] = counts.get(verdict.kind, 0) + 1
        return {
            "tool": "repro.obs.audit",
            "triggered": bool(self.events),
            "trigger_kinds": sorted({event.kind for event in self.events}),
            "verdict_count": len(self.verdicts),
            "verdict_counts": counts,
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
            "ledgers": {
                node: {
                    "entries": len(ledger.entries),
                    "checkpoints": len(ledger.checkpoints),
                    "head": ledger.head.hex(),
                }
                for node, ledger in sorted(self.probes.ledgers.items())
            },
        }

    def evidence_bundle(self, meta: Optional[dict] = None) -> dict:
        """Signed bundle over verdicts, triggers, and every ledger."""
        return build_bundle(
            ledgers=self.probes.ledgers,
            verdicts=self.verdicts,
            triggers=[event.as_dict() for event in self.events],
            meta=meta,
            key=self._group_key,
        )


def write_audit_report(
    out_dir: Union[str, Path], plane: AuditPlane, meta: Optional[dict] = None
) -> dict[str, Path]:
    """Write health report + flight bundles + audit verdicts + evidence."""
    written = write_health_report(out_dir, plane)
    out = Path(out_dir)
    audit_path = out / "audit.json"
    audit_path.write_text(
        json.dumps(plane.audit_report(), indent=2, sort_keys=True) + "\n"
    )
    written["audit"] = audit_path
    evidence_path = out / "evidence.json"
    evidence_path.write_text(
        json.dumps(plane.evidence_bundle(meta=meta), indent=2, sort_keys=True) + "\n"
    )
    written["evidence"] = evidence_path
    return written
