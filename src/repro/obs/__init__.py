"""repro.obs — unified metrics/span/trace observability layer.

One coherent instrumentation plane for the whole stack: a
:class:`~repro.obs.registry.Registry` of labeled counters and gauges, a
:class:`~repro.obs.spans.SpanRecorder` of hierarchical sim-time spans
that follow one request end-to-end (legacy client → Troxy host → ecall
boundary → Hybster ordering → execution → reply voting → fast-read
cache) and carry every duration, and deterministic exporters
(:mod:`repro.obs.export`): JSONL and Chrome trace-event JSON loadable
in Perfetto.

Wiring happens through :class:`~repro.obs.probes.ObsPlane`, which
subscribes to a deployment's probe bus (:mod:`repro.sim.probe`), the
one place every layer reports to — the protocol logic is never forked,
and an attached plane schedules **no** simulation events, so observed
and unobserved runs are event-for-event identical.

All timestamps are simulated time; two same-seed runs produce
byte-identical exports. ``python -m repro.obs`` runs a workload, dumps
a full report and attributes its critical path.

:mod:`repro.obs.health` builds on this plane: declarative SLO tracking,
BFT-aware anomaly detectors, and a fault-forensics flight recorder —
``python -m repro.faults --plane health`` measures detection latency
over the :mod:`repro.faults` scenario catalogue.
"""

from .export import chrome_trace, metrics_jsonl, write_report
from .probes import ObsPlane
from .registry import Counter, Gauge, Registry
from .spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "ObsPlane",
    "Registry",
    "Span",
    "SpanRecorder",
    "chrome_trace",
    "metrics_jsonl",
    "write_report",
]
