"""Smoke tests for the experiment harness (tiny parameters).

These do not assert paper shapes (tests/paper does, on the tracked
full-scale tables); they assert the harness plumbing: every figure function runs, returns
the right grid of points, and measures something non-trivial.
"""

import pytest

from repro.bench.experiments import (
    fig6_ordered_writes_local,
    fig7_ordered_writes_wan,
    fig8_reads_local,
    fig9_reads_wan,
    fig10_write_contention,
    fig11_http_latency,
    table1_rows,
)


def test_fig6_grid():
    points = fig6_ordered_writes_local(sizes=(256,), n_clients=2, duration=0.01)
    assert {p.system for p in points} == {"bl", "ctroxy", "etroxy"}
    assert all(p.figure == "fig6" for p in points)
    assert all(p.throughput > 0 for p in points)


def test_fig7_grid():
    points = fig7_ordered_writes_wan(sizes=(256,), n_clients=8, duration=1.0)
    assert {p.system for p in points} == {"bl", "etroxy"}
    assert all(p.throughput > 0 for p in points)


def test_fig8_grid():
    points = fig8_reads_local(reply_sizes=(1024,), n_clients=2, duration=0.01)
    assert {p.system for p in points} == {"bl", "etroxy"}
    assert all(p.throughput > 0 for p in points)


def test_fig9_grid():
    points = fig9_reads_wan(reply_sizes=(1024,), n_clients=8, duration=1.0)
    assert all(p.throughput > 0 for p in points)


def test_fig10_grid():
    points = fig10_write_contention(n_clients=2, duration=0.01)
    systems = {p.system for p in points}
    assert systems == {
        "bl-read-opt", "bl-ordered", "troxy-fast-read", "troxy-adaptive", "troxy-ordered",
    }
    assert all(p.throughput > 0 for p in points)


def test_fig11_grid_wan_only():
    points = fig11_http_latency(n_clients=8, total_rate=40.0, duration=1.0, wan_only=True)
    assert {p.system for p in points} == {"jetty", "bl", "prophecy", "troxy"}
    assert all(p.x == "wan" for p in points)
    assert all(p.latency_ms > 100 for p in points)  # the WAN RTT is in there
    assert all(p.summary.count > 0 for p in points)


def test_table1_static_rows():
    rows = table1_rows()
    assert [r.system for r in rows] == ["BL", "Prophecy", "Troxy"]
    assert rows[1].consistency == "Weak"
    assert rows[0].replicas == rows[2].replicas == "2f+1"
