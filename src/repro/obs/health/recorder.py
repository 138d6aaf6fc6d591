"""Fault-forensics flight recorder.

A bounded ring of recently closed spans/events per node, continuously
fed by the health plane's span tap. When any detector fires, the
recorder freezes the rings into a *bundle* — the triggering health
events plus the last N spans of every node — so the forensic context
around a fault survives even though the full span table may be huge or
discarded.

``write()`` dumps each bundle deterministically:

- ``events.jsonl``  — the triggering health events, one per line;
- ``spans.jsonl``   — the frozen ring contents in span-id order;
- ``trace.json``    — the same spans as a Chrome-trace slice, loadable
  in Perfetto next to the full-run trace.

All content derives from sim-time state only, so two same-seed runs
produce byte-identical bundles (CI's obs-smoke job diffs them).
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Optional, Sequence, Union

from ..export import _dumps, chrome_trace, span_record
from ..spans import Span
from .events import HealthEvent


class FlightRecorder:
    """Per-node rings of closed spans + frozen forensic bundles."""

    def __init__(self, capacity: int = 128, max_bundles: int = 12):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.max_bundles = max_bundles
        self._rings: dict[str, deque] = {}
        self.bundles: list[dict] = []
        self.dropped_bundles = 0
        self.recorded_spans = 0

    # -- continuous feed -------------------------------------------------------

    def record(self, span: Span) -> None:
        ring = self._rings.get(span.node)
        if ring is None:
            ring = self._rings[span.node] = deque(maxlen=self.capacity)
        ring.append(span)
        self.recorded_spans += 1

    def recent_span_ids(self, node: str, k: int = 8) -> tuple[int, ...]:
        """Ids of the last ``k`` spans on ``node`` (evidence links)."""
        ring = self._rings.get(node, ())
        tail = list(ring)[-k:]
        return tuple(span.span_id for span in tail)

    # -- capture ---------------------------------------------------------------

    def capture(self, t: float, events: Sequence[HealthEvent]) -> Optional[dict]:
        """Freeze the rings into a bundle; None when at capacity."""
        if len(self.bundles) >= self.max_bundles:
            self.dropped_bundles += 1
            return None
        spans: list[Span] = []
        for node in sorted(self._rings):
            spans.extend(self._rings[node])
        spans.sort(key=lambda s: s.span_id)
        bundle = {
            "seq": len(self.bundles),
            "t": t,
            "events": list(events),
            "spans": spans,
        }
        self.bundles.append(bundle)
        return bundle

    def summary(self) -> dict:
        return {
            "bundles": len(self.bundles),
            "dropped_bundles": self.dropped_bundles,
            "ring_capacity": self.capacity,
            "recorded_spans": self.recorded_spans,
        }

    # -- dump ------------------------------------------------------------------

    def write(self, out_dir: Union[str, Path]) -> list[Path]:
        """Write every bundle under ``out_dir``; returns bundle dirs."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for bundle in self.bundles:
            kinds = sorted({event.kind for event in bundle["events"]})
            slug = kinds[0] if kinds else "capture"
            bundle_dir = out / f"bundle-{bundle['seq']:03d}-{slug}"
            bundle_dir.mkdir(parents=True, exist_ok=True)
            events_text = "".join(
                _dumps(event.as_dict()) + "\n" for event in bundle["events"]
            )
            (bundle_dir / "events.jsonl").write_text(events_text)
            spans_text = "".join(
                _dumps(span_record(span)) + "\n" for span in bundle["spans"]
            )
            (bundle_dir / "spans.jsonl").write_text(spans_text)
            trace = chrome_trace(bundle["spans"], process_name="repro.health")
            (bundle_dir / "trace.json").write_text(_dumps(trace) + "\n")
            written.append(bundle_dir)
        return written
