"""BFT-aware anomaly detectors over window snapshots.

Each detector turns one :class:`~repro.obs.health.window.WindowSnapshot`
into zero or more :class:`Finding`\\ s of the one kind it is named for.
Detectors are *edge-triggered*: a condition that stays true across
consecutive windows fires once when it appears and re-arms when it
clears, so a replica that stays crashed for twenty windows produces one
diagnosis, not twenty.

The catalogue maps the failure modes the paper's evaluation provokes
(DSN 2018 §VI) onto the signals the obs registry already carries. A
kind stays only while it is the first diagnosis of some chaos scenario
(DESIGN.md D27):

======================  ==================================================
``replica_divergence``   one replica's execute counter drifts from quorum
``mode_switch``          the adaptive total-order monitor switched mode
``view_change``          a replica advanced its view
``enclave_reboot``       reboot + cache-clear signature on one Troxy
``client_retry_spike``   client-side retransmissions (tamper/corrupt/loss)
``shard_imbalance``      one agreement group executing far above fair share
``migration_stall``      a live shard handoff frozen past its expected window
======================  ==================================================

Everything here is pure arithmetic on snapshot fields: no simulation
events, no randomness, no wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...analysis.metrics import percentile
from .window import WindowSnapshot


@dataclass(frozen=True)
class Finding:
    """One detector verdict, before the plane attaches time/evidence."""

    kind: str
    node: str
    severity: str
    detail: dict = field(default_factory=dict)
    metrics: tuple[tuple[str, float], ...] = ()
    #: Extra key component so recurrences that are genuinely distinct
    #: (a second view change, a second reboot) re-fire despite the
    #: edge-trigger (e.g. the new view number).
    instance: object = None

    @property
    def key(self) -> tuple:
        return (self.kind, self.node, self.instance)


class Detector:
    """Base: subclasses implement ``_conditions(win) -> list[Finding]``."""

    name = "detector"

    def __init__(self):
        self._active: set[tuple] = set()

    def evaluate(self, win: WindowSnapshot) -> list[Finding]:
        conditions = self._conditions(win)
        current = {finding.key for finding in conditions}
        fired = [f for f in conditions if f.key not in self._active]
        self._active = current
        return fired

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        raise NotImplementedError


class ReplicaDivergenceDetector(Detector):
    """One replica's execution counter drifting below the quorum's.

    The execute counter is the cheapest proxy for "this replica applied
    the same committed prefix as everyone else": a crashed, partitioned
    or silently-withholding replica stops executing while the quorum
    advances. Fires when the per-window quorum median moved by at least
    ``MIN_QUORUM_OPS`` and one replica covered less than ``LAG_RATIO``
    of it.
    """

    name = "replica_divergence"
    MIN_QUORUM_OPS = 4
    LAG_RATIO = 0.25

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        # Quorums are per agreement group: in a sharded cell different
        # groups legitimately execute different volumes (keyspace skew),
        # so each replica is compared against its *own* group's median.
        by_shard: dict = {}
        for node in win.replica_nodes():
            by_shard.setdefault(shard_of_node(node) or "g0", []).append(node)
        out = []
        for shard in sorted(by_shard):
            nodes = by_shard[shard]
            if len(nodes) < 3:
                continue
            executes = {node: win.per_node[node].executes for node in nodes}
            median = float(percentile(sorted(executes.values()), 0.5))
            if median < self.MIN_QUORUM_OPS:
                continue
            for node in nodes:
                if executes[node] < self.LAG_RATIO * median:
                    out.append(Finding(
                        kind="replica_divergence", node=node, severity="critical",
                        detail={
                            "executes": executes[node],
                            "quorum_median": median,
                            "lag_ratio": self.LAG_RATIO,
                        },
                        metrics=(
                            ("executions_total.delta", float(executes[node])),
                            ("quorum_median.delta", median),
                        ),
                    ))
        return out


class ModeSwitchDetector(Detector):
    """The adaptive total-order monitor switched mode on a replica."""

    name = "mode_switch"

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        out = []
        for node in win.replica_nodes():
            switches = win.per_node[node].switches
            if switches:
                out.append(Finding(
                    kind="mode_switch", node=node, severity="info",
                    detail={"switches": switches},
                    metrics=(("monitor_mode_switches_total.delta",
                              float(switches)),),
                ))
        return out


class ViewChangeDetector(Detector):
    """A replica advanced its view (leader suspected/replaced)."""

    name = "view_change"

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        out = []
        for node in win.replica_nodes():
            delta = win.per_node[node]
            if delta.view_delta > 0:
                out.append(Finding(
                    kind="view_change", node=node, severity="warn",
                    detail={"view": delta.view, "advanced_by": delta.view_delta},
                    metrics=(("replica.view", float(delta.view)),),
                    instance=delta.view,
                ))
        return out


class EnclaveRebootDetector(Detector):
    """Enclave power-cycle signature: reboot plus cache cold-clear."""

    name = "enclave_reboot"

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        out = []
        for node in win.replica_nodes():
            delta = win.per_node[node]
            if delta.reboots_delta > 0:
                out.append(Finding(
                    kind="enclave_reboot", node=node, severity="critical",
                    detail={
                        "reboots": delta.reboots_delta,
                        "cache_clears": delta.cache_clears_delta,
                    },
                    metrics=(
                        ("enclave.reboots.delta", float(delta.reboots_delta)),
                        ("cache.clears.delta", float(delta.cache_clears_delta)),
                    ),
                    instance=win.index,
                ))
        return out


class ClientRetrySpikeDetector(Detector):
    """Client retransmissions: sealed replies rejected, lost, or late.

    The legacy client only retries when a reply never arrived or failed
    seal verification (tampered/corrupted channel, §VI-B), so any
    retry burst is diagnostic — healthy cells run at zero retries.
    """

    name = "client_retry_spike"
    MIN_RETRIES = 1

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        if win.retries < self.MIN_RETRIES:
            return []
        return [Finding(
            kind="client_retry_spike", node="", severity="warn",
            detail={"retries": win.retries, "completed": win.completed},
            metrics=(("client.retries.delta", float(win.retries)),),
        )]


def shard_of_node(node: str):
    """Agreement group of a replica node name (docs/SHARDING.md).

    ``g{N}-replica-{i}`` belongs to ``g{N}``; the unprefixed historical
    ``replica-{i}`` names are group 0. Non-replica nodes map to None.
    """
    if node.startswith("replica-"):
        return "g0"
    head, sep, rest = node.partition("-")
    if sep and rest.startswith("replica-") and len(head) > 1 and head[0] == "g" \
            and head[1:].isdigit():
        return head
    return None


class ShardImbalanceDetector(Detector):
    """One agreement group executing far beyond its fair share.

    Groups per-node execute deltas by shard (node-name prefix). With a
    uniform ring the shards should split the load roughly evenly; a
    group running at ``RATIO`` times the fair share for a window means
    the keyspace placement (or a skewed workload) has concentrated the
    traffic — the signal that a rebalance migration is warranted. Only
    meaningful when the window saw at least ``MIN_TOTAL_OPS`` executes
    across two or more shards.
    """

    name = "shard_imbalance"
    RATIO = 2.0
    MIN_TOTAL_OPS = 12

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        per_shard: dict[str, int] = {}
        for node in win.replica_nodes():
            shard = shard_of_node(node)
            if shard is None:
                continue
            per_shard[shard] = per_shard.get(shard, 0) + win.per_node[node].executes
        if len(per_shard) < 2:
            return []
        total = sum(per_shard.values())
        if total < self.MIN_TOTAL_OPS:
            return []
        fair = total / len(per_shard)
        out = []
        for shard in sorted(per_shard):
            if per_shard[shard] >= self.RATIO * fair:
                out.append(Finding(
                    kind="shard_imbalance", node=shard, severity="warn",
                    detail={
                        "shard_executes": per_shard[shard],
                        "fair_share": round(fair, 2),
                        "shards": len(per_shard),
                        "ratio": round(per_shard[shard] / fair, 4),
                    },
                    metrics=(
                        ("executions_total.shard_delta", float(per_shard[shard])),
                        ("executions_total.fair_share", fair),
                    ),
                ))
        return out


class MigrationStallDetector(Detector):
    """A live shard handoff stuck past its expected freeze window.

    A healthy migration freezes writes for a few fence round-trips —
    well under one health window. A migration still active (and the
    router still frozen) after ``PATIENCE`` consecutive windows means
    the fenced transfer cannot converge (partitioned source quorum,
    crashed destination leader): writes to the moving keys are piling
    up in client retry loops, so this is critical, not cosmetic.
    """

    name = "migration_stall"
    PATIENCE = 4

    def __init__(self):
        super().__init__()
        self._frozen_for = 0
        self._episode = 0

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        if win.migrations_active > 0 and win.router_frozen:
            self._frozen_for += 1
        else:
            if self._frozen_for >= self.PATIENCE:
                self._episode += 1  # re-arm for a distinct later stall
            self._frozen_for = 0
        if self._frozen_for < self.PATIENCE:
            return []
        return [Finding(
            kind="migration_stall", node="", severity="critical",
            detail={
                "frozen_windows": self._frozen_for,
                "migrations_active": win.migrations_active,
                "migrations_completed": win.migrations_completed,
            },
            metrics=(("migration.frozen_windows", float(self._frozen_for)),),
            instance=self._episode,
        )]


def default_detectors() -> list[Detector]:
    """The full catalogue, fresh (detectors keep edge-trigger state)."""
    return [
        ReplicaDivergenceDetector(),
        ModeSwitchDetector(),
        ViewChangeDetector(),
        EnclaveRebootDetector(),
        ClientRetrySpikeDetector(),
        ShardImbalanceDetector(),
        MigrationStallDetector(),
    ]
