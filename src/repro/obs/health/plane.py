"""HealthPlane: online diagnosis on top of the obs plane.

A :class:`HealthPlane` *has* an :class:`~repro.obs.probes.ObsPlane` —
one bus subscription, no probe points of its own — and judges what that
plane records by listening to its span recorder. Evaluation is
piggybacked on probe activity: every span open/close checks whether the
simulated clock crossed a window boundary, and if so the elapsed
window(s) are closed and run through the SLO trackers and the detector
catalogue. The plane therefore schedules **zero** simulation events and
consumes no randomness; an observed-and-judged run is event-for-event
identical to an unobserved one, and two same-seed runs produce
byte-identical health reports and forensic bundles.

Data flow per window::

    closed spans (tallies, ──┐
      client progress)       │
    sampled cluster state ───┴─> WindowSnapshot ─> SLO trackers ─┐
                                                   detectors ────┼─> HealthEvents
                                                                 │
    closed spans ─> FlightRecorder rings ── capture on any event <┘
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..probes import ObsPlane
from ..registry import Registry
from ..spans import Span
from .detectors import Finding, default_detectors
from .events import Evidence, HealthEvent
from .recorder import FlightRecorder
from .slo import SloTracker, default_slos
from .window import WindowSnapshot

#: (kind of a span that really closed, its ``outcome``) -> the per-node
#: window tally it moves. The same closes move the obs registry's
#: counters (``repro.obs.probes.RULES``), one instant later.
TALLIES = {
    ("hybster.execute", None): "executes",
    ("monitor.switch", None): "switches",
    ("troxy.fast_read", "hit"): "fast_hits",
    ("troxy.fast_read", "conflict"): "fast_conflicts",
    ("troxy.fast_read", "timeout"): "fast_timeouts",
}


class HealthPlane:
    """An obs plane (``.obs``) + SLO tracking + anomaly detection + flight
    recorder. Whatever it does not define itself (``registry``, ``spans``,
    ``cluster``, ``now``, ``wrap_clients``, ``snapshot``) is its obs
    plane's."""

    def __init__(self, registry: Optional[Registry] = None, window: float = 0.25):
        self.obs = ObsPlane(registry=registry)
        self.obs.spans.opened.append(self._span_opened)
        self.obs.spans.closed.append(self._span_closed)
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.window = float(window)
        self.slos = [SloTracker(spec) for spec in default_slos()]
        self.detectors = default_detectors()
        self.flight = FlightRecorder()
        self.events: list[HealthEvent] = []
        self.windows_evaluated = 0
        self._win: Optional[WindowSnapshot] = None
        self._open_invokes = 0
        self._sampled: dict[tuple, float] = {}
        self._replica_ids: list[str] = []

    # -- attachment -----------------------------------------------------------

    def __getattr__(self, name):
        return getattr(self.obs, name)

    def attach(self, cluster) -> "HealthPlane":
        if self.cluster is cluster:
            return self  # idempotent, like ObsPlane: don't re-baseline
        self.obs.attach(cluster)
        self._replica_ids = sorted(
            replica.replica_id for replica in cluster.replicas
        )
        # Baseline: tallies and samples are measured from attach time.
        self._prime_samples()
        start = self.now
        self._win = WindowSnapshot(
            start=start, end=start + self.window, index=0
        )
        return self

    def detach(self) -> "HealthPlane":
        self.obs.detach()
        return self

    def _prime_samples(self) -> None:
        cluster = self.cluster
        for replica in cluster.replicas:
            rid = replica.replica_id
            self._sampled[("view", rid)] = replica.view
        for host in cluster.hosts:
            rid = host.replica_id
            self._sampled[("reboots", rid)] = host.enclave.stats.reboots
            self._sampled[("clears", rid)] = host.core.cache.stats.clears

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
        # The tick runs before anything is counted: a span that closes
        # exactly on a boundary belongs to the new window.
        self._maybe_tick()
        name = span.name
        unfinished = span.attrs.get("unfinished")
        win = self._win
        if name == "client.invoke":
            self._open_invokes -= 1
            if not unfinished:
                win.completed += 1
                win.retries += int(span.attrs.get("retries", 0))
                op_class = "read" if span.attrs.get("read") else "write"
                win.observe_latency(op_class, span.duration)
            return
        if unfinished:
            return  # force-closed: no real duration, nothing happened
        tally = TALLIES.get((name, span.attrs.get("outcome")))
        if tally is not None:
            nd = win.node(span.node)
            setattr(nd, tally, getattr(nd, tally) + 1)

    def _maybe_tick(self) -> None:
        if self._win is None or self.cluster is None:
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
                    "health_events_total", kind=event.kind, severity=event.severity
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
        """Fill the snapshot with the sampled cluster state; the span
        listener has kept its tallies as the window went."""
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
        unfinished = self.obs.finalize()
        if self._win is not None:
            # The run may end mid-window; evaluate what accumulated.
            self._win.end = max(self.now, self._win.start)
            self._close_window(advance=False)
        self.registry.gauge("health_windows_evaluated").set(self.windows_evaluated)
        self.registry.gauge("health_flight_bundles").set(len(self.flight.bundles))
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
