"""Per-request critical-path latency attribution (repro.obs.critpath).

Reconstructs, from the :class:`~repro.obs.spans.SpanRecorder` trace of
an instrumented run, where each request's end-to-end latency actually
went: troxy accept -> fast-read attempt -> batch-queue wait -> ordering
-> counter certification -> execute -> reply voting -> (sharded)
forwarding hop. Every phase is split into *wait* (queueing, network
transit) and *service* (span-covered work on the critical path), and
the per-request attributions aggregate into per-phase profiles whose
p50 / p99 are :func:`repro.analysis.metrics.percentile` over the
per-request seconds.

The attribution is an interval sweep over one request's span tree,
clamped to the ``client.invoke`` root window ``[T0, T1]``:

- Each span maps to a canonical phase with a priority; at every instant
  the highest-priority active span owns the time (an enclave
  certification inside an ordering round is certification, not
  ordering). Spans that own at least one atomic interval are the
  request's *critical path* — :func:`highlighted_chrome_trace` marks
  exactly those.
- Instants covered by no span are *wait* attributed to the next phase
  that starts (the Forward transit before ordering is ordering wait,
  the reply fan-in before a vote is voting wait); the trailing gap —
  the sealed reply crossing back to the client — is ``reply_delivery``
  wait.

Every atomic interval of ``[T0, T1]`` is attributed to exactly one
(phase, part) pair, so per-request slices sum to the measured
end-to-end latency by construction (coverage == 1.0).

Everything here is pure arithmetic on recorded spans: no simulation
events, no randomness, no wall clock — two same-seed runs render
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from ...analysis.metrics import percentile
from ..export import chrome_trace
from ..spans import Span, SpanRecorder

__all__ = [
    "PHASES",
    "RequestAttribution",
    "CritpathAnalysis",
    "analyze",
    "attribute_trace",
    "render_report",
    "highlighted_chrome_trace",
]

#: Canonical phase order along the request chain (report row order for
#: equal contributions; the analyzer never invents phases outside this
#: set plus ``reply_delivery``).
PHASES = (
    "troxy_accept",
    "fast_read",
    "forward_hop",
    "batch_queue",
    "ordering",
    "certification",
    "execute",
    "voting",
    "reply_delivery",
)

#: ecall name -> (phase, part) for the enclave crossings that belong to
#: a specific protocol phase. Certify-family ecalls are matched by
#: substring (certify_order / certify_commit / future counters).
_ECALL_PHASE = {
    "install_session": ("troxy_accept", "service"),
    "handle_client_envelope": ("troxy_accept", "service"),
    "answer_cache_query": ("fast_read", "service"),
    "handle_cache_entry_reply": ("fast_read", "service"),
    "fast_read_timeout": ("fast_read", "service"),
    "authenticate_local_reply": ("voting", "service"),
    "authenticate_batch_replies": ("voting", "service"),
    "handle_replica_reply": ("voting", "service"),
    "handle_replica_reply_batch": ("voting", "service"),
    "handle_forwarded_request": ("forward_hop", "service"),
    "handle_shard_fast_reply": ("forward_hop", "service"),
}


def _classify(span: Span) -> Optional[tuple[str, str, int]]:
    """(phase, part, priority) of one span, or None if unattributed.

    Priority decides ownership where spans overlap: innermost, most
    specific phases win (certification > execute > voting > ecall >
    ordering > fast-read > batch-queue > forward hop > host pump).
    """
    name = span.name
    if name == "troxy.host":
        return ("troxy_accept", "service", 30)
    if name == "troxy.cache":
        return ("fast_read", "service", 55)
    if name == "hybster.queue":
        return ("batch_queue", "wait", 50)
    if name == "hybster.order":
        return ("ordering", "service", 60)
    if name == "hybster.execute":
        return ("execute", "service", 80)
    if name == "troxy.vote":
        return ("voting", "service", 70)
    if name == "shard.forward":
        return ("forward_hop", "wait", 45)
    if name.startswith("enclave.ecall:"):
        ecall = name.split(":", 1)[1]
        if "certify" in ecall:
            return ("certification", "service", 90)
        phase, part = _ECALL_PHASE.get(ecall, ("troxy_accept", "service"))
        return (phase, part, 65)
    return None


@dataclass
class RequestAttribution:
    """Where one request's end-to-end latency went."""

    trace_id: str
    start: float
    end: float
    #: (phase, part) -> attributed seconds; parts are "wait"/"service".
    slices: dict = field(default_factory=dict)
    #: Span ids that owned at least one interval (the critical path).
    critical_span_ids: frozenset = frozenset()

    @property
    def e2e(self) -> float:
        return self.end - self.start

    @property
    def attributed(self) -> float:
        return sum(self.slices.values())

    @property
    def coverage(self) -> float:
        """Attributed share of end-to-end latency (1.0 by construction)."""
        return self.attributed / self.e2e if self.e2e > 0 else 0.0

    def phase_seconds(self, phase: str) -> float:
        return sum(
            seconds for (p, _part), seconds in self.slices.items() if p == phase
        )

    @property
    def forwarded(self) -> bool:
        return self.phase_seconds("forward_hop") > 0.0


def attribute_trace(
    spans: Sequence[Span], trace_id: str
) -> Optional[RequestAttribution]:
    """Attribute one trace; None when it has no completed root invoke."""
    mine = [s for s in spans if s.trace_id == trace_id]
    root = next(
        (s for s in mine if s.name == "client.invoke" and s.parent_id is None),
        None,
    )
    if (
        root is None
        or root.end is None
        or root.attrs.get("unfinished")
        or root.end <= root.start
    ):
        return None
    t0, t1 = root.start, root.end
    segments = []  # (start, end, phase, part, priority, span_id)
    for span in mine:
        if span is root or span.kind == "event" or span.end is None:
            continue
        cls = _classify(span)
        if cls is None:
            continue
        start, end = max(span.start, t0), min(span.end, t1)
        if end <= start:
            continue
        segments.append((start, end, *cls, span.span_id))
    slices: dict[tuple[str, str], float] = {}
    critical: set[int] = set()

    def credit(phase: str, part: str, seconds: float) -> None:
        key = (phase, part)
        slices[key] = slices.get(key, 0.0) + seconds

    points = sorted({t0, t1, *(p for seg in segments for p in seg[:2])})
    starts = sorted(segments, key=lambda seg: seg[0])
    for a, b in zip(points, points[1:]):
        active = [seg for seg in segments if seg[0] <= a and seg[1] >= b]
        if active:
            # Highest priority owns the interval; dense span ids break
            # ties deterministically (earliest-begun span wins).
            owner = max(active, key=lambda seg: (seg[4], -seg[5]))
            credit(owner[2], owner[3], b - a)
            critical.add(owner[5])
            continue
        # Gap: wait attributed to the phase that starts at the gap's
        # end (atomic intervals guarantee the gap ends at a segment
        # start or at t1 — the trailing reply delivery).
        upcoming = [seg for seg in starts if seg[0] == b]
        if upcoming:
            nxt = max(upcoming, key=lambda seg: (seg[4], -seg[5]))
            credit(nxt[2], "wait", b - a)
        else:
            credit("reply_delivery", "wait", b - a)
    return RequestAttribution(
        trace_id=trace_id,
        start=t0,
        end=t1,
        slices=slices,
        critical_span_ids=frozenset(critical),
    )


class CritpathAnalysis:
    """Aggregated attribution of one run."""

    def __init__(self):
        self.requests: list[RequestAttribution] = []
        #: (phase, part) -> (total attributed seconds, requests hit).
        self.totals: dict[tuple[str, str], float] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self.traces_seen = 0

    def add(self, attribution: RequestAttribution) -> None:
        self.requests.append(attribution)
        for key, seconds in attribution.slices.items():
            self.totals[key] = self.totals.get(key, 0.0) + seconds
            self.counts[key] = self.counts.get(key, 0) + 1

    def seconds(self, key: Optional[tuple[str, str]] = None) -> list[float]:
        """Sorted per-request seconds of one (phase, part) slice, or of
        the end-to-end latency when ``key`` is None."""
        if key is None:
            return sorted(r.e2e for r in self.requests)
        return sorted(r.slices[key] for r in self.requests if key in r.slices)

    @property
    def total_e2e(self) -> float:
        return sum(r.e2e for r in self.requests)

    @property
    def mean_e2e(self) -> float:
        return self.total_e2e / len(self.requests)

    def mean(self, key: tuple[str, str]) -> float:
        return self.totals[key] / self.counts[key]

    def min_coverage(self) -> float:
        return min((r.coverage for r in self.requests), default=0.0)

    def share(self, key: tuple[str, str]) -> float:
        return self.totals.get(key, 0.0) / self.total_e2e if self.total_e2e else 0.0

    def rows(self) -> list[tuple[str, str]]:
        """(phase, part) keys, largest total contribution first."""
        order = {phase: i for i, phase in enumerate(PHASES)}
        return sorted(
            self.totals,
            key=lambda key: (-self.totals[key], order.get(key[0], 99), key[1]),
        )

    def critical_span_ids(self) -> frozenset:
        out: set[int] = set()
        for request in self.requests:
            out |= request.critical_span_ids
        return frozenset(out)

    def as_dict(self) -> dict:
        """JSON-serialisable summary (byte-stable when dumped sorted)."""
        phases = {}
        for key in self.rows():
            values = self.seconds(key)
            phases["/".join(key)] = {
                "requests": self.counts[key],
                "p50_ms": percentile(values, 0.5) * 1e3,
                "p99_ms": percentile(values, 0.99) * 1e3,
                "mean_ms": self.mean(key) * 1e3,
                "total_s": self.totals[key],
                "share": self.share(key),
            }
        e2e = self.seconds()
        return {
            "tool": "repro.obs.critpath",
            "requests": len(self.requests),
            "traces_seen": self.traces_seen,
            "e2e_p50_ms": percentile(e2e, 0.5) * 1e3 if e2e else None,
            "e2e_p99_ms": percentile(e2e, 0.99) * 1e3 if e2e else None,
            "min_coverage": self.min_coverage(),
            "phases": phases,
        }


def analyze(
    spans: Union[SpanRecorder, Sequence[Span]],
    trace_ids: Optional[Iterable[str]] = None,
) -> CritpathAnalysis:
    """Attribute every completed request of an instrumented run."""
    span_list = spans.spans if isinstance(spans, SpanRecorder) else list(spans)
    # Group once: per-trace attribution over the full list would be
    # quadratic in the number of requests.
    grouped: dict[str, list[Span]] = {}
    for span in span_list:
        if span.trace_id is not None:
            grouped.setdefault(span.trace_id, []).append(span)
    ids = list(trace_ids) if trace_ids is not None else list(grouped)
    analysis = CritpathAnalysis()
    analysis.traces_seen = len(ids)
    for trace_id in ids:
        attribution = attribute_trace(grouped.get(trace_id, ()), trace_id)
        if attribution is not None:
            analysis.add(attribution)
    return analysis


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f}"


def render_report(analysis: CritpathAnalysis, label: str = "") -> str:
    """Deterministic bottleneck report: top phases by contribution."""
    title = "critical-path attribution"
    if label:
        title += f" — {label}"
    lines = [title, "=" * max(len(title), 40)]
    n = len(analysis.requests)
    lines.append(
        f"requests attributed: {n} (of {analysis.traces_seen} traces)"
    )
    if n == 0:
        lines.append("no completed requests to attribute")
        return "\n".join(lines)
    e2e = analysis.seconds()
    lines.append(
        f"end-to-end: p50 {_ms(percentile(e2e, 0.5)).strip()} ms   "
        f"p99 {_ms(percentile(e2e, 0.99)).strip()} ms   "
        f"mean {_ms(analysis.mean_e2e).strip()} ms"
    )
    lines.append("")
    lines.append(
        f"{'phase':<16} {'part':<8} {'reqs':>5} {'p50 ms':>9} "
        f"{'p99 ms':>9} {'mean ms':>9} {'share':>7}"
    )
    rows = analysis.rows()
    for phase, part in rows:
        key = (phase, part)
        values = analysis.seconds(key)
        lines.append(
            f"{phase:<16} {part:<8} {analysis.counts[key]:>5} "
            f"{_ms(percentile(values, 0.5))} {_ms(percentile(values, 0.99))} "
            f"{_ms(analysis.mean(key))} {analysis.share(key):>6.1%}"
        )
    lines.append("")
    wait = sum(s for (_p, part), s in analysis.totals.items() if part == "wait")
    service = analysis.total_e2e - wait
    lines.append(
        f"wait/service split: {wait / analysis.total_e2e:.1%} wait, "
        f"{service / analysis.total_e2e:.1%} service"
    )
    accounted = sum(analysis.totals.values()) / analysis.total_e2e
    lines.append(
        f"accounted: {accounted:.1%} of end-to-end wall time "
        f"(min over requests {analysis.min_coverage():.1%})"
    )
    if rows:
        top = rows[0]
        lines.append(
            f"top bottleneck: {'/'.join(top)} — "
            f"{analysis.share(top):.1%} of attributed time "
            f"(p99 {_ms(percentile(analysis.seconds(top), 0.99)).strip()} ms)"
        )
    return "\n".join(lines)


def highlighted_chrome_trace(
    spans: Sequence[Span],
    analysis: CritpathAnalysis,
    process_name: str = "repro",
) -> dict:
    """Chrome trace with critical-path spans marked.

    Spans that owned time on some request's critical path carry
    ``args.critical = true`` and the ``critical`` category (filterable
    in Perfetto); everything else exports unchanged.
    """
    critical = analysis.critical_span_ids()
    trace = chrome_trace(spans, process_name)
    for event in trace["traceEvents"]:
        span_id = event.get("args", {}).get("span_id")
        if span_id in critical:
            event["args"]["critical"] = True
            event["cat"] = f"{event['cat']},critical"
    return trace
