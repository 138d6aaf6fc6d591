"""BFT-aware anomaly detectors over window snapshots.

Each detector turns one :class:`~repro.obs.health.window.WindowSnapshot`
into zero or more :class:`Finding`\\ s. Detectors are *edge-triggered*:
a condition that stays true across consecutive windows fires once when
it appears and re-arms when it clears, so a replica that stays crashed
for twenty windows produces one diagnosis, not twenty.

The catalogue maps the failure modes the paper's evaluation provokes
(DSN 2018 §VI) — and the ones related work flags as the critical
observables for trusted-component BFT (arXiv:2312.05714: what the
untrusted majority gets away with; arXiv:2107.11144: fast-read abort
storms as the canonical liveness failure) — onto the signals the obs
registry already carries:

======================  ==================================================
``replica_divergence``   one replica's execute counter drifts from quorum
``fast_read_abort_storm``  conflict+timeout rate of resolved fast reads
``cache_staleness``      stale-entry conflicts dominate cache-backed reads
``mode_switch`` / ``mode_switch_churn``  adaptive total-order flapping
``view_change``          a replica advanced its view
``sealed_counter_stall`` trusted counter frozen while the cell progresses
``enclave_reboot``       reboot + cache-clear signature on one Troxy
``client_retry_spike``   client-side retransmissions (tamper/corrupt/loss)
``shard_imbalance``      one agreement group executing far above fair share
``migration_stall``      a live shard handoff frozen past its expected window
``queue_saturation``     leader batch-queue wait dwarfing ordering service
======================  ==================================================

Everything here is pure arithmetic on snapshot fields: no simulation
events, no randomness, no wall clock.
"""

from __future__ import annotations

from collections import deque
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
    ``min_quorum_ops`` and one replica covered less than ``lag_ratio``
    of it.
    """

    name = "replica_divergence"

    def __init__(self, min_quorum_ops: int = 4, lag_ratio: float = 0.25):
        super().__init__()
        self.min_quorum_ops = min_quorum_ops
        self.lag_ratio = lag_ratio

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
            if median < self.min_quorum_ops:
                continue
            for node in nodes:
                if executes[node] < self.lag_ratio * median:
                    out.append(Finding(
                        kind="replica_divergence", node=node, severity="critical",
                        detail={
                            "executes": executes[node],
                            "quorum_median": median,
                            "lag_ratio": self.lag_ratio,
                        },
                        metrics=(
                            ("executions_total.delta", float(executes[node])),
                            ("quorum_median.delta", median),
                        ),
                    ))
        return out


class FastReadAbortStormDetector(Detector):
    """Resolved fast reads aborting (conflict or timeout) en masse.

    arXiv:2107.11144's canonical liveness failure: the fast path keeps
    being tried and keeps failing, burning a round trip per attempt.
    """

    name = "fast_read_abort_storm"

    def __init__(self, min_samples: int = 6, abort_ratio: float = 0.5):
        super().__init__()
        self.min_samples = min_samples
        self.abort_ratio = abort_ratio

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        out = []
        for node in win.replica_nodes():
            delta = win.per_node[node]
            attempts = delta.fast_attempts
            if attempts < self.min_samples:
                continue
            ratio = delta.fast_aborts / attempts
            if ratio >= self.abort_ratio:
                out.append(Finding(
                    kind="fast_read_abort_storm", node=node, severity="warn",
                    detail={
                        "attempts": attempts,
                        "conflicts": delta.fast_conflicts,
                        "timeouts": delta.fast_timeouts,
                        "abort_ratio": round(ratio, 4),
                    },
                    metrics=(
                        ("fast_read_results_total{outcome=conflict}.delta",
                         float(delta.fast_conflicts)),
                        ("fast_read_results_total{outcome=timeout}.delta",
                         float(delta.fast_timeouts)),
                        ("fast_read_results_total{outcome=hit}.delta",
                         float(delta.fast_hits)),
                    ),
                ))
        return out


class CacheStalenessDetector(Detector):
    """Stale cache entries dominating the fast-read verdicts.

    A conflict (as opposed to a timeout) means the cached reply did not
    match the read quorum — the entry was stale or invalidated while
    being served. A high conflict share among cache-backed reads is the
    write-contention signature of Fig. 10.
    """

    name = "cache_staleness"

    def __init__(self, min_conflicts: int = 4, conflict_ratio: float = 0.5):
        super().__init__()
        self.min_conflicts = min_conflicts
        self.conflict_ratio = conflict_ratio

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        out = []
        for node in win.replica_nodes():
            delta = win.per_node[node]
            resolved = delta.fast_hits + delta.fast_conflicts
            if delta.fast_conflicts < self.min_conflicts or resolved == 0:
                continue
            ratio = delta.fast_conflicts / resolved
            if ratio >= self.conflict_ratio:
                out.append(Finding(
                    kind="cache_staleness", node=node, severity="warn",
                    detail={
                        "conflicts": delta.fast_conflicts,
                        "hits": delta.fast_hits,
                        "conflict_ratio": round(ratio, 4),
                        "cache_misses": delta.cache_misses,
                    },
                    metrics=(
                        ("fast_read_results_total{outcome=conflict}.delta",
                         float(delta.fast_conflicts)),
                        ("cache_lookups_total{outcome=miss}.delta",
                         float(delta.cache_misses)),
                    ),
                ))
        return out


class ModeSwitchChurnDetector(Detector):
    """Adaptive total-order switches, single and flapping.

    One switch is the monitor doing its job (``mode_switch``, info);
    ``churn_threshold`` switches within the last ``trail`` windows means
    the threshold is oscillating (``mode_switch_churn``, warn).
    """

    name = "mode_switch_churn"

    def __init__(self, churn_threshold: int = 3, trail: int = 8):
        super().__init__()
        self.churn_threshold = churn_threshold
        self.trail = trail
        self._history: dict[str, deque] = {}

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        out = []
        for node in win.replica_nodes():
            switches = win.per_node[node].switches
            history = self._history.setdefault(node, deque(maxlen=self.trail))
            history.append(switches)
            if switches:
                out.append(Finding(
                    kind="mode_switch", node=node, severity="info",
                    detail={"switches": switches},
                    metrics=(("monitor_mode_switches_total.delta",
                              float(switches)),),
                ))
            trailing = sum(history)
            if trailing >= self.churn_threshold:
                out.append(Finding(
                    kind="mode_switch_churn", node=node, severity="warn",
                    detail={
                        "switches_in_trail": trailing,
                        "trail_windows": len(history),
                    },
                    metrics=(("monitor_mode_switches_total.trail",
                              float(trailing)),),
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


class SealedCounterStallDetector(Detector):
    """A replica's trusted counters frozen while the cell progresses.

    Hybster certifies every ordered message against a monotonic sealed
    counter; a counter that stops advancing for ``patience`` windows on
    a node that also executes nothing — while the rest of the cell
    keeps ordering — means that node has dropped out of certification
    (crash, partition, or a rollback attempt holding the counter back).
    """

    name = "sealed_counter_stall"

    def __init__(self, patience: int = 3, min_cluster_progress: int = 4):
        super().__init__()
        self.patience = patience
        self.min_cluster_progress = min_cluster_progress
        self._stalled_for: dict[str, int] = {}

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        out = []
        # Progress is judged within the node's own agreement group: a
        # group whose keyspace slice is simply cold (sharded cells) is
        # idle, not stalled.
        shard_progress: dict = {}
        for node in win.replica_nodes():
            shard = shard_of_node(node) or "g0"
            shard_progress[shard] = (
                shard_progress.get(shard, 0) + win.per_node[node].executes
            )
        for node in win.replica_nodes():
            delta = win.per_node[node]
            cluster_progress = shard_progress[shard_of_node(node) or "g0"]
            stalled = (
                cluster_progress >= self.min_cluster_progress
                and delta.sealed_delta == 0
                and delta.executes == 0
            )
            if stalled:
                self._stalled_for[node] = self._stalled_for.get(node, 0) + 1
            else:
                self._stalled_for[node] = 0
            if self._stalled_for[node] >= self.patience:
                out.append(Finding(
                    kind="sealed_counter_stall", node=node, severity="critical",
                    detail={
                        "stalled_windows": self._stalled_for[node],
                        "sealed_sum": delta.sealed_sum,
                        "cluster_executes": cluster_progress,
                    },
                    metrics=(
                        ("sealed_counter.sum", float(delta.sealed_sum)),
                        ("executions_total.cluster_delta",
                         float(cluster_progress)),
                    ),
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

    def __init__(self, min_retries: int = 1):
        super().__init__()
        self.min_retries = min_retries

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        if win.retries < self.min_retries:
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
    group running at ``ratio`` times the fair share for a window means
    the keyspace placement (or a skewed workload) has concentrated the
    traffic — the signal that a rebalance migration is warranted. Only
    meaningful when the window saw at least ``min_total_ops`` executes
    across two or more shards.
    """

    name = "shard_imbalance"

    def __init__(self, ratio: float = 2.0, min_total_ops: int = 12):
        super().__init__()
        self.ratio = ratio
        self.min_total_ops = min_total_ops

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
        if total < self.min_total_ops:
            return []
        fair = total / len(per_shard)
        out = []
        for shard in sorted(per_shard):
            if per_shard[shard] >= self.ratio * fair:
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
    router still frozen) after ``patience`` consecutive windows means
    the fenced transfer cannot converge (partitioned source quorum,
    crashed destination leader): writes to the moving keys are piling
    up in client retry loops, so this is critical, not cosmetic.
    """

    name = "migration_stall"

    def __init__(self, patience: int = 4):
        super().__init__()
        self.patience = patience
        self._frozen_for = 0
        self._episode = 0

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        if win.migrations_active > 0 and win.router_frozen:
            self._frozen_for += 1
        else:
            if self._frozen_for >= self.patience:
                self._episode += 1  # re-arm for a distinct later stall
            self._frozen_for = 0
        if self._frozen_for < self.patience:
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


class QueueSaturationDetector(Detector):
    """Leader batch-queue wait dwarfing ordering service time.

    The critical-path wait/service split (repro.obs.critpath) made the
    batch queue a first-class phase: ``hybster.queue`` spans measure how
    long each request sat in the leader's :class:`BatchAssembler`, and
    ``hybster.order`` spans how long cutting-plus-certifying a slot
    takes. Healthy batching holds the mean wait within a small multiple
    of the service time (the assembler waits at most ``BATCH_WAIT``, and
    adaptively less under light load). When arrivals outrun the drain
    rate — pipeline slots all in flight, cutoff never reached fast
    enough — waits grow with the backlog while service stays flat, so
    the wait/service ratio diverges. Fires when the ratio exceeds
    ``ratio`` for ``patience`` consecutive windows with at least
    ``min_waits`` queued requests per window; that margin keeps a
    healthy adaptive leader (ratio ~15 on the batching benchmark) quiet.
    """

    name = "queue_saturation"

    def __init__(self, ratio: float = 40.0, min_waits: int = 6,
                 patience: int = 2):
        super().__init__()
        self.ratio = ratio
        self.min_waits = min_waits
        self.patience = patience
        self._hot_for: dict[str, int] = {}

    def _conditions(self, win: WindowSnapshot) -> list[Finding]:
        out = []
        for node in win.replica_nodes():
            delta = win.per_node[node]
            service = delta.mean_order_service
            saturated = (
                delta.queue_waits >= self.min_waits
                and service > 0.0
                and delta.mean_queue_wait >= self.ratio * service
            )
            if saturated:
                self._hot_for[node] = self._hot_for.get(node, 0) + 1
            else:
                self._hot_for[node] = 0
            if self._hot_for[node] >= self.patience:
                ratio = delta.mean_queue_wait / service
                out.append(Finding(
                    kind="queue_saturation", node=node, severity="warn",
                    detail={
                        "queued_requests": delta.queue_waits,
                        "mean_queue_wait": round(delta.mean_queue_wait, 9),
                        "mean_order_service": round(service, 9),
                        "wait_service_ratio": round(ratio, 2),
                        "hot_windows": self._hot_for[node],
                    },
                    metrics=(
                        ("queue.wait.mean", delta.mean_queue_wait),
                        ("order.service.mean", service),
                        ("queue.wait_service_ratio", ratio),
                    ),
                ))
        return out


def default_detectors() -> list[Detector]:
    """The full catalogue at its default thresholds."""
    return [
        ReplicaDivergenceDetector(),
        FastReadAbortStormDetector(),
        CacheStalenessDetector(),
        ModeSwitchChurnDetector(),
        ViewChangeDetector(),
        SealedCounterStallDetector(),
        EnclaveRebootDetector(),
        ClientRetrySpikeDetector(),
        ShardImbalanceDetector(),
        MigrationStallDetector(),
        QueueSaturationDetector(),
    ]
