"""Deterministic exporters for the observability plane.

Two formats, both derived purely from registry/span state (which is
itself purely sim-derived), so two same-seed runs write byte-identical
files:

- :func:`metrics_jsonl` — one compact JSON object per line: every
  counter and gauge, then every span, with sorted keys.
- :func:`chrome_trace` — Chrome trace-event JSON ("X" complete events
  for spans, "i" instant events, "M" thread-name metadata), loadable in
  ``chrome://tracing`` or Perfetto. Nodes map to threads of one
  process; timestamps are sim-time microseconds.

:func:`write_report` writes both into a directory. Every file ends with
a single trailing newline.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence, Union

from .registry import Registry
from .spans import Span

#: Format name -> file name written by :func:`write_report`.
REPORT_FILES = {
    "jsonl": "metrics.jsonl",
    "chrome": "trace.json",
}


def _json_num(value):
    """JSON-safe sample value: non-finite floats become strings.

    ``json.dumps`` renders ``inf``/``nan`` as ``Infinity``/``NaN``,
    which is not valid JSON; exports must stay loadable by strict
    parsers (``jq``, browsers), so those values are encoded as the
    strings ``"+Inf"`` / ``"-Inf"`` / ``"NaN"`` instead.
    """
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "+Inf" if value > 0 else "-Inf"
    return value


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def span_record(span: Span) -> dict:
    """One span as a JSONL record; the flight recorder's ``spans.jsonl``
    writes the same shape."""
    return {
        "type": span.kind,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "trace_id": span.trace_id,
        "name": span.name,
        "node": span.node,
        "start": span.start,
        "end": span.end,
        "attrs": span.attrs,
    }


def metrics_jsonl(registry: Registry, spans: Optional[Sequence[Span]] = None) -> str:
    """One JSON object per line: instruments first, then spans."""
    lines = [
        _dumps({
            "type": family.kind,
            "name": family.name,
            "labels": dict(key),
            "value": _json_num(family.instruments[key].value),
        })
        for family in registry.families()
        for key in sorted(family.instruments)
    ]
    lines.extend(_dumps(span_record(span)) for span in spans or ())
    return "\n".join(lines) + "\n" if lines else ""


def chrome_trace(spans: Sequence[Span], process_name: str = "repro") -> dict:
    """Spans as a Chrome trace-event object (Perfetto-loadable).

    Each node becomes one thread of a single process; thread ids follow
    the sorted node-name order so the Perfetto track layout is stable
    across runs.
    """
    nodes = sorted({span.node for span in spans})
    tid = {node: i + 1 for i, node in enumerate(nodes)}
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for node in nodes:
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid[node],
                "name": "thread_name",
                "args": {"name": node or "(none)"},
            }
        )
    for span in spans:
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
        base = {
            "name": span.name,
            "cat": span.trace_id or "internal",
            "pid": 1,
            "tid": tid[span.node],
            "ts": span.start * 1e6,
            "args": args,
        }
        if span.kind == "event":
            base["ph"] = "i"
            base["s"] = "t"
        else:
            base["ph"] = "X"
            base["dur"] = span.duration * 1e6
        events.append(base)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_report(
    out_dir: Union[str, Path],
    registry: Registry,
    spans: Sequence[Span] = (),
    trace: Optional[dict] = None,
) -> dict[str, Path]:
    """Write both export formats into ``out_dir``.

    ``trace`` replaces the Chrome document (default:
    ``chrome_trace(spans)``), e.g. with critical-path marks. Returns
    ``{format: path}``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {fmt: out / name for fmt, name in REPORT_FILES.items()}
    written["jsonl"].write_text(metrics_jsonl(registry, spans))
    written["chrome"].write_text(_dumps(trace or chrome_trace(spans)) + "\n")
    return written
