"""Unit tests for result formatting."""

from pathlib import Path

from repro.analysis.metrics import Summary
from repro.bench.experiments import Point
from repro.bench.report import (
    RESULTS_DIR,
    format_latency_series,
    format_throughput_series,
    save_and_print,
)


def summary(throughput=100.0, latency=0.01):
    return Summary(
        count=100, duration=1.0, throughput=throughput,
        mean_latency=latency, p50=latency, p95=latency, p99=latency,
        conflict_rate=0.0,
    )


def points():
    return [
        Point("figX", "bl", 256, summary(200.0)),
        Point("figX", "etroxy", 256, summary(100.0)),
        Point("figX", "bl", 1024, summary(150.0)),
        Point("figX", "etroxy", 1024, summary(150.0)),
    ]


def test_throughput_table_contains_all_cells():
    table = format_throughput_series("Title", points())
    assert "Title" in table
    assert "bl" in table and "etroxy" in table
    assert "256" in table and "1024" in table
    assert table.count("op/s") == 4


def test_latency_table_formats_ms():
    table = format_latency_series("Lat", [Point("f", "bl", "wan", summary(latency=0.250))])
    assert "250.00 ms" in table


def test_results_dir_is_normalized_path():
    assert isinstance(RESULTS_DIR, Path)
    assert RESULTS_DIR.is_absolute()
    assert ".." not in RESULTS_DIR.parts
    assert RESULTS_DIR.parts[-2:] == ("benchmarks", "results")


def test_save_and_print_writes_table(tmp_path, monkeypatch, capsys):
    import repro.bench.report as report

    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path / "results")
    save_and_print("demo", "a table")
    assert "a table" in capsys.readouterr().out
    assert (tmp_path / "results" / "demo.txt").read_text() == "a table\n"
