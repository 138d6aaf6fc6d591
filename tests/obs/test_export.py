"""Golden-file tests for the deterministic exporters.

The goldens under ``tests/obs/golden/`` pin the exact bytes each
exporter produces for a small handcrafted registry + span table. Any
formatting change — label ordering, float rendering, JSON separators —
shows up as a diff here before it breaks byte-identical CI runs.

Regenerate after an intentional format change with::

    PYTHONPATH=src:tests python -m obs.test_export
"""

import json
import math
from pathlib import Path

import pytest

from repro.obs.export import chrome_trace, metrics_jsonl, write_report
from repro.obs.registry import Registry
from repro.obs.spans import SpanRecorder

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def build_fixture():
    """Small deterministic registry + spans exercising every feature."""
    reg = Registry()
    c = reg.counter("requests_total", node="r0", kind="read")
    c.inc()
    c.inc(2)
    reg.counter("requests_total", node="r1", kind="write").inc()
    reg.gauge("queue_depth", node="r0").set(3)
    reg.counter("escaped_total", label='a"b\\c\nd').inc()

    rec = SpanRecorder()
    root = rec.begin("client.invoke", 0.0, trace_id="c0#1", node="client-0", op="get")
    host = rec.begin(
        "troxy.host", 0.001, trace_id="c0#1", node="r0", type="ClientEnvelope"
    )
    ecall = rec.begin(
        "enclave.ecall:handle_client_envelope", 0.0012, trace_id="c0#1", node="r0"
    )
    rec.event("troxy.fast_read", 0.0015, trace_id="c0#1", node="r0", outcome="hit")
    rec.end(ecall, 0.002)
    rec.end(host, 0.0021)
    rec.end(root, 0.003, retries=0)
    rec.begin("internal.tick", 0.004, node="r1")  # untraced, left open
    rec.finish(0.005)
    return reg, rec


def _render_all():
    reg, rec = build_fixture()
    return {
        "metrics.jsonl": metrics_jsonl(reg, rec.spans),
        "trace.json": json.dumps(
            chrome_trace(rec.spans), sort_keys=True, separators=(",", ":")
        )
        + "\n",
    }


@pytest.mark.parametrize("filename", ["metrics.jsonl", "trace.json"])
def test_exporters_match_golden(filename):
    rendered = _render_all()[filename]
    golden = (GOLDEN_DIR / filename).read_text()
    assert rendered == golden


def test_exports_are_deterministic():
    assert _render_all() == _render_all()


def test_jsonl_records_parse():
    reg, rec = build_fixture()
    lines = metrics_jsonl(reg, rec.spans).splitlines()
    records = [json.loads(line) for line in lines]
    kinds = {r["type"] for r in records}
    assert kinds == {"counter", "gauge", "span", "event"}
    escaped = next(r for r in records if r["name"] == "escaped_total")
    assert escaped["labels"] == {"label": 'a"b\\c\nd'}
    span = next(r for r in records if r["type"] == "span")
    assert {"span_id", "parent_id", "trace_id", "name", "node", "start", "end"} <= set(span)


def test_chrome_trace_structure():
    _, rec = build_fixture()
    doc = chrome_trace(rec.spans)
    events = doc["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in metas)
    thread_names = {
        e["args"]["name"] for e in metas if e["name"] == "thread_name"
    }
    assert {"client-0", "r0", "r1"} <= thread_names
    complete = [e for e in events if e["ph"] == "X"]
    instant = [e for e in events if e["ph"] == "i"]
    assert len(complete) == 4  # 3 request spans + 1 force-closed tick
    assert len(instant) == 1
    root = next(e for e in complete if e["name"] == "client.invoke")
    assert root["ts"] == 0.0
    assert root["dur"] == pytest.approx(3000.0)  # 3 ms in microseconds
    assert root["cat"] == "c0#1"
    # Untraced spans land in the "internal" category.
    tick = next(e for e in complete if e["name"] == "internal.tick")
    assert tick["cat"] == "internal"


def test_write_report_roundtrip(tmp_path):
    reg, rec = build_fixture()
    written = write_report(tmp_path / "out", reg, rec.spans)
    assert sorted(written) == ["chrome", "jsonl"]
    for path in written.values():
        assert path.exists()
        assert path.read_text().endswith("\n")


def test_nonfinite_jsonl_stays_valid_json():
    """json.dumps would emit bare Infinity/NaN; exports must not."""
    reg = Registry()
    reg.gauge("pressure", node="r0").set(math.inf)
    reg.gauge("pressure", node="r1").set(-math.inf)
    reg.gauge("ratio").set(math.nan)
    text = metrics_jsonl(reg, [])
    records = [json.loads(line) for line in text.splitlines()]
    assert "Infinity" not in text and "NaN" not in text.replace('"NaN"', "")
    assert [r["value"] for r in records] == ["+Inf", "-Inf", "NaN"]


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, text in _render_all().items():
        (GOLDEN_DIR / filename).write_text(text)
        print(f"wrote {GOLDEN_DIR / filename}")


if __name__ == "__main__":
    _regenerate()
