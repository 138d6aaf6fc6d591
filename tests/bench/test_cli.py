"""Unit tests for the `python -m repro.bench` CLI (runners stubbed)."""

import json

import pytest

import repro.bench.__main__ as cli
import repro.bench.report as report
from repro.analysis.metrics import Summary
from repro.bench.experiments import Point


@pytest.fixture
def stubbed(monkeypatch):
    calls = []
    for name in list(cli.RUNNERS):
        monkeypatch.setitem(cli.RUNNERS, name, lambda n=name: calls.append(n))
    return calls


def _fake_points(figure):
    summary = Summary(
        count=10, duration=0.25, throughput=40.0, mean_latency=0.002,
        p50=0.002, p95=0.003, p99=0.004, conflict_rate=0.0,
    )
    sim = {"wall_s": 1.25, "steps": 1000, "scheduled_events": 1010}
    return [Point(figure, "etroxy", 128, summary, extra={"sim": sim})]


def test_single_experiment(stubbed):
    assert cli.main(["fig6"]) == 0
    assert stubbed == ["fig6"]


def test_multiple_experiments(stubbed):
    cli.main(["fig7", "table1"])
    assert stubbed == ["fig7", "table1"]


def test_all_runs_everything(stubbed):
    cli.main(["all"])
    assert sorted(stubbed) == sorted(cli.RUNNERS)


def test_unknown_experiment_rejected(stubbed):
    with pytest.raises(SystemExit):
        cli.main(["fig99"])
    assert stubbed == []


def test_json_flag_writes_bench_file(monkeypatch, tmp_path):
    monkeypatch.setitem(cli.RUNNERS, "fig6", lambda: _fake_points("fig6"))
    assert cli.main(["fig6", "--json", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "BENCH_fig6.json").read_text())
    assert payload["bench"] == "fig6"
    (cell,) = payload["cells"]
    assert cell["system"] == "etroxy"
    assert cell["x"] == 128
    assert cell["throughput_ops"] == 40.0
    assert cell["sim"] == {"wall_s": 1.25, "steps": 1000, "scheduled_events": 1010}


def test_json_flag_table1_writes_rows(monkeypatch, tmp_path):
    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path)
    assert cli.main(["table1", "--json", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "BENCH_table1.json").read_text())
    systems = [row["system"] for row in payload["rows"]]
    assert systems == ["BL", "Prophecy", "Troxy"]


def test_profile_flag_dumps_pstats(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.RUNNERS, "fig6", lambda: _fake_points("fig6"))
    assert cli.main(["fig6", "--profile", "--json", str(tmp_path)]) == 0
    assert (tmp_path / "BENCH_fig6.pstats").exists()
    assert (tmp_path / "BENCH_fig6.json").exists()
    assert "Ordered by: cumulative time" in capsys.readouterr().err
