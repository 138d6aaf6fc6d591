"""HealthPlane: online diagnosis on top of the obs plane.

A :class:`HealthPlane` *is* an :class:`~repro.obs.probes.ObsPlane` — it
attaches through the same duck-typed ``obs.*`` hooks and adds no probe
points — that additionally judges what it records. Evaluation is
piggybacked on probe activity: every span open/close checks whether the
simulated clock crossed a window boundary, and if so the elapsed
window(s) are closed and run through the SLO trackers and the detector
catalogue. The plane therefore schedules **zero** simulation events and
consumes no randomness; an observed-and-judged run is event-for-event
identical to an unobserved one, and two same-seed runs produce
byte-identical health reports and forensic bundles.

Data flow per window::

    registry counter deltas ─┐
    sampled cluster state ───┼─> WindowSnapshot ─> SLO trackers ─┐
    client.invoke closures ──┘                     detectors ────┼─> HealthEvents
                                                                 │
    span tap ──> FlightRecorder rings ── capture on any event <──┘
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence, Union

from ..probes import ObsPlane
from ..registry import Registry
from ..spans import Span, SpanRecorder
from .detectors import Detector, Finding, default_detectors
from .events import Evidence, HealthEvent
from .recorder import FlightRecorder
from .slo import SloSpec, SloTracker, default_slos
from .window import RegistryDeltas, WindowSnapshot

#: Registry counter families the window delta-tracker watches.
WATCHED_FAMILIES = (
    "executions_total",
    "orders_total",
    "commits_total",
    "fast_read_results_total",
    "cache_lookups_total",
    "votes_total",
    "monitor_mode_switches_total",
)


class _TappedRecorder(SpanRecorder):
    """SpanRecorder that notifies the health plane on open/close.

    This is the single interception point for every span *and* instant
    event any probe records, so the flight recorder and the window
    clock need no per-probe wiring.
    """

    def __init__(self, on_open, on_closed):
        super().__init__()
        self._on_open = on_open
        self._on_closed = on_closed

    def begin(self, name, t, **kwargs):
        span = super().begin(name, t, **kwargs)
        self._on_open(span)
        return span

    def end(self, span, t, **attrs):
        span = super().end(span, t, **attrs)
        self._on_closed(span)
        return span

    def event(self, name, t, **kwargs):
        span = super().event(name, t, **kwargs)
        self._on_closed(span)
        return span


class HealthPlane(ObsPlane):
    """Obs plane + SLO tracking + anomaly detection + flight recorder."""

    def __init__(
        self,
        registry: Optional[Registry] = None,
        window: float = 0.25,
        slos: Optional[Sequence[SloSpec]] = None,
        detectors: Optional[Sequence[Detector]] = None,
        flight_capacity: int = 128,
        max_bundles: int = 12,
    ):
        recorder = _TappedRecorder(self._span_opened, self._span_closed)
        super().__init__(registry=registry, spans=recorder)
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.window = float(window)
        self.slos = [
            SloTracker(spec)
            for spec in (slos if slos is not None else default_slos())
        ]
        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.flight = FlightRecorder(
            capacity=flight_capacity, max_bundles=max_bundles
        )
        self.events: list[HealthEvent] = []
        self.windows_evaluated = 0
        self._deltas = RegistryDeltas(self.registry, WATCHED_FAMILIES)
        self._win: Optional[WindowSnapshot] = None
        self._open_invokes = 0
        self._sampled: dict[tuple, float] = {}
        self._replica_ids: list[str] = []

    # -- attachment -----------------------------------------------------------

    def attach(self, cluster) -> "HealthPlane":
        if self.cluster is cluster:
            return self  # idempotent, like ObsPlane: don't re-baseline
        super().attach(cluster)
        self._replica_ids = sorted(
            replica.replica_id for replica in cluster.replicas
        )
        # Baseline: deltas and samples are measured from attach time.
        self._deltas.collect()
        self._prime_samples()
        start = self.now
        self._win = WindowSnapshot(
            start=start, end=start + self.window, index=0
        )
        return self

    def _prime_samples(self) -> None:
        cluster = self.cluster
        for replica in cluster.replicas:
            rid = replica.replica_id
            self._sampled[("view", rid)] = replica.view
            self._sampled[("sealed", rid)] = self._sealed_sum(replica)
            self._sampled[("invalid", rid)] = replica.stats.invalid_messages
        for host in cluster.hosts:
            rid = host.replica_id
            self._sampled[("reboots", rid)] = host.enclave.stats.reboots
            self._sampled[("clears", rid)] = host.core.cache.stats.clears

    @staticmethod
    def _sealed_sum(replica) -> int:
        counters = getattr(replica, "counters", None)
        if counters is None:
            return 0
        return sum(counters.snapshot().values())

    # -- span tap (window clock + flight recorder + client progress) ----------

    def _span_opened(self, span: Span) -> None:
        if self._win is None:
            return
        self._maybe_tick()
        if span.name == "client.invoke":
            self._win.started += 1
            self._open_invokes += 1

    def _span_closed(self, span: Span) -> None:
        self.flight.record(span)
        if self._win is None:
            return
        self._maybe_tick()
        # Batch-queue wait vs ordering service feed the queue_saturation
        # detector; force-closed (unfinished) spans have no real duration.
        if span.node is not None and not span.attrs.get("unfinished"):
            if span.name == "hybster.queue":
                nd = self._win.node(span.node)
                nd.queue_waits += 1
                nd.queue_wait_sum += span.duration
            elif span.name == "hybster.order":
                nd = self._win.node(span.node)
                nd.order_services += 1
                nd.order_service_sum += span.duration
        if span.name != "client.invoke":
            return
        self._open_invokes -= 1
        if span.attrs.get("unfinished"):
            return
        win = self._win
        win.completed += 1
        win.retries += int(span.attrs.get("retries", 0))
        op_class = "read" if span.attrs.get("read") else "write"
        win.observe_latency(op_class, span.duration)

    def _maybe_tick(self) -> None:
        if self._win is None or self._env is None:
            return
        now = self.now
        while now >= self._win.end:
            self._close_window()

    # -- window evaluation ------------------------------------------------------

    def _close_window(self, advance: bool = True) -> None:
        win = self._win
        self._populate(win)
        findings: list[Finding] = []
        for tracker in self.slos:
            finding = tracker.evaluate(win)
            if finding is not None:
                findings.append(finding)
        for detector in self.detectors:
            findings.extend(detector.evaluate(win))
        if findings:
            events = [self._event_from(finding, win) for finding in findings]
            self.events.extend(events)
            for event in events:
                self.registry.counter(
                    "health_events_total", "Health diagnoses emitted",
                    kind=event.kind, severity=event.severity,
                ).inc()
            self.flight.capture(win.end, events)
        self.windows_evaluated += 1
        if advance:
            self._win = WindowSnapshot(
                start=win.end, end=win.end + self.window, index=win.index + 1
            )
        else:
            self._win = None

    def _populate(self, win: WindowSnapshot) -> None:
        """Fill the snapshot: counter deltas + sampled cluster state."""
        for (name, labels), delta in self._deltas.collect().items():
            label_map = dict(labels)
            node = label_map.get("node")
            if node is None:
                continue
            nd = win.node(node)
            amount = int(delta)
            if name == "executions_total":
                nd.executes += amount
            elif name == "orders_total":
                nd.orders += amount
            elif name == "commits_total":
                nd.commits += amount
            elif name == "fast_read_results_total":
                outcome = label_map.get("outcome")
                if outcome == "hit":
                    nd.fast_hits += amount
                elif outcome == "conflict":
                    nd.fast_conflicts += amount
                elif outcome == "timeout":
                    nd.fast_timeouts += amount
            elif name == "cache_lookups_total":
                if label_map.get("outcome") == "miss":
                    nd.cache_misses += amount
            elif name == "votes_total":
                if label_map.get("outcome") == "decided":
                    nd.votes_decided += amount
            elif name == "monitor_mode_switches_total":
                nd.switches += amount
        for rid in self._replica_ids:
            win.node(rid)
        win.open_invokes = self._open_invokes
        cluster = self.cluster
        if cluster is None:
            return
        for replica in cluster.replicas:
            rid = replica.replica_id
            nd = win.node(rid)
            nd.view = replica.view
            nd.view_delta = int(self._sample(("view", rid), replica.view))
            sealed = self._sealed_sum(replica)
            nd.sealed_sum = sealed
            nd.sealed_delta = int(self._sample(("sealed", rid), sealed))
            nd.invalid_messages = int(self._sample(
                ("invalid", rid), replica.stats.invalid_messages
            ))
        for host in cluster.hosts:
            rid = host.replica_id
            nd = win.node(rid)
            nd.reboots_delta = int(self._sample(
                ("reboots", rid), host.enclave.stats.reboots
            ))
            nd.cache_clears_delta = int(self._sample(
                ("clears", rid), host.core.cache.stats.clears
            ))
        # Shard state (repro.shard): read-only samples off the router
        # and migrator, absent on single-group clusters.
        router = cluster.router
        if router is not None:
            win.router_frozen = router.frozen
        migrator = cluster.migrator
        if migrator is not None:
            reports = migrator.reports
            win.migrations_completed = sum(1 for r in reports if r.completed)
            win.migrations_active = sum(
                1 for r in reports if not r.completed and not r.reason
            )

    def _sample(self, key: tuple, current) -> float:
        """Delta of a sampled absolute since the previous window."""
        delta = current - self._sampled.get(key, 0)
        self._sampled[key] = current
        return delta

    def _event_from(self, finding: Finding, win: WindowSnapshot) -> HealthEvent:
        return HealthEvent(
            kind=finding.kind,
            t=win.end,
            node=finding.node,
            severity=finding.severity,
            detail=finding.detail,
            evidence=Evidence(
                metrics=finding.metrics,
                span_ids=self.flight.recent_span_ids(finding.node)
                if finding.node else (),
            ),
            window=(win.start, win.end),
        )

    # -- lifecycle --------------------------------------------------------------

    def finalize(self) -> int:
        """Close spans, evaluate the final (partial) window, snapshot."""
        unfinished = super().finalize()
        if self._win is not None:
            # The run may end mid-window; evaluate what accumulated.
            self._win.end = max(self.now, self._win.start)
            self._close_window(advance=False)
        self.registry.gauge(
            "health_windows_evaluated", "Sliding windows judged"
        ).set(self.windows_evaluated)
        self.registry.gauge(
            "health_flight_bundles", "Forensic bundles captured"
        ).set(len(self.flight.bundles))
        return unfinished

    # -- reporting ---------------------------------------------------------------

    def health_report(self) -> dict:
        """JSON-serialisable verdict summary (byte-stable when dumped)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {
            "tool": "repro.obs.health",
            "window_seconds": self.window,
            "windows_evaluated": self.windows_evaluated,
            "event_count": len(self.events),
            "event_counts": counts,
            "events": [event.as_dict() for event in self.events],
            "slos": [tracker.summary() for tracker in self.slos],
            "detectors": sorted(detector.name for detector in self.detectors),
            "flight": self.flight.summary(),
        }


def write_health_report(
    out_dir: Union[str, Path], plane: HealthPlane
) -> dict[str, Path]:
    """Write ``health.json`` + forensic bundles under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    health_path = out / "health.json"
    health_path.write_text(
        json.dumps(plane.health_report(), indent=2, sort_keys=True) + "\n"
    )
    written["health"] = health_path
    if plane.flight.bundles:
        bundle_dirs = plane.flight.write(out / "bundles")
        written["bundles"] = out / "bundles"
        for path in bundle_dirs:
            written[path.name] = path
    return written
