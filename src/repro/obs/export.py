"""Deterministic exporters for the observability plane.

Three formats, all derived purely from registry/span state (which is
itself purely sim-derived), so two same-seed runs write byte-identical
files:

- :func:`prometheus_text` — Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``_bucket{le=...}`` histogram
  series), families and series in sorted order.
- :func:`metrics_jsonl` — one compact JSON object per line: every
  instrument, then every span, with sorted keys.
- :func:`chrome_trace` — Chrome trace-event JSON ("X" complete events
  for spans, "i" instant events, "M" thread-name metadata), loadable in
  ``chrome://tracing`` or Perfetto. Nodes map to threads of one
  process; timestamps are sim-time microseconds.

:func:`write_report` writes all requested formats into a directory.
Every file ends with a single trailing newline.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .registry import Histogram, Quantile, Registry
from .spans import Span

#: Format name -> file name written by :func:`write_report`.
REPORT_FILES = {
    "prometheus": "metrics.prom",
    "jsonl": "metrics.jsonl",
    "chrome": "trace.json",
}


def _fmt_num(value) -> str:
    """Render a sample value; integral floats print as integers.

    Non-finite floats use the Prometheus spellings ``+Inf`` / ``-Inf``
    / ``NaN`` (``repr`` would emit ``nan``, which scrapers reject).
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def _json_num(value):
    """JSON-safe sample value: non-finite floats become strings.

    ``json.dumps`` renders ``inf``/``nan`` as ``Infinity``/``NaN``,
    which is not valid JSON; exports must stay loadable by strict
    parsers (``jq``, browsers), so those values are encoded as the
    Prometheus spellings instead.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt_num(value)
    return value


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: Iterable[tuple[str, str]], extra: Optional[tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def prometheus_text(registry: Registry) -> str:
    """Registry contents in the Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        # Sketch-backed quantile instruments surface as the standard
        # Prometheus "summary" type (quantile lines + _sum + _count).
        kind = "summary" if family.kind == "quantile" else family.kind
        lines.append(f"# TYPE {family.name} {kind}")
        for key in sorted(family.instruments):
            instrument = family.instruments[key]
            if isinstance(instrument, Histogram):
                for bound, cum in instrument.cumulative():
                    le = "+Inf" if math.isinf(bound) else _fmt_num(bound)
                    labels = _label_str(key, ("le", le))
                    lines.append(f"{family.name}_bucket{labels} {cum}")
                labels = _label_str(key)
                lines.append(f"{family.name}_sum{labels} {_fmt_num(instrument.sum)}")
                lines.append(f"{family.name}_count{labels} {instrument.count}")
            elif isinstance(instrument, Quantile):
                for q, estimate in instrument.snapshot():
                    labels = _label_str(key, ("q", _fmt_num(q)))
                    lines.append(
                        f"{family.name}_quantile{labels} {_fmt_num(estimate)}"
                    )
                labels = _label_str(key)
                lines.append(f"{family.name}_sum{labels} {_fmt_num(instrument.sum)}")
                lines.append(f"{family.name}_count{labels} {instrument.count}")
            else:
                labels = _label_str(key)
                lines.append(f"{family.name}{labels} {_fmt_num(instrument.value)}")
    return "\n".join(lines) + "\n" if lines else ""


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def metrics_jsonl(registry: Registry, spans: Optional[Sequence[Span]] = None) -> str:
    """One JSON object per line: instruments first, then spans."""
    lines: list[str] = []
    for family in registry.families():
        for key in sorted(family.instruments):
            instrument = family.instruments[key]
            record: dict = {
                "type": family.kind,
                "name": family.name,
                "labels": dict(key),
            }
            if isinstance(instrument, Histogram):
                record["buckets"] = [
                    {"le": "+Inf" if math.isinf(b) else b, "count": c}
                    for b, c in instrument.cumulative()
                ]
                record["sum"] = _json_num(instrument.sum)
                record["count"] = instrument.count
            elif isinstance(instrument, Quantile):
                record["quantiles"] = [
                    {"q": q, "value": _json_num(estimate)}
                    for q, estimate in instrument.snapshot()
                ]
                record["sum"] = _json_num(instrument.sum)
                record["count"] = instrument.count
            else:
                record["value"] = _json_num(instrument.value)
            lines.append(_dumps(record))
    for span in spans or ():
        lines.append(
            _dumps(
                {
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
            )
        )
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
    formats: Sequence[str] = ("prometheus", "jsonl", "chrome"),
    trace: Optional[dict] = None,
) -> dict[str, Path]:
    """Write the requested export formats into ``out_dir``.

    ``trace`` replaces the Chrome document (default:
    ``chrome_trace(spans)``), e.g. with critical-path marks. Returns
    ``{format: path}``. Unknown format names raise ValueError.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for fmt in formats:
        if fmt not in REPORT_FILES:
            raise ValueError(
                f"unknown export format {fmt!r}; choose from {sorted(REPORT_FILES)}"
            )
        path = out / REPORT_FILES[fmt]
        if fmt == "prometheus":
            path.write_text(prometheus_text(registry))
        elif fmt == "jsonl":
            path.write_text(metrics_jsonl(registry, spans))
        else:
            path.write_text(_dumps(trace or chrome_trace(spans)) + "\n")
        written[fmt] = path
    return written
