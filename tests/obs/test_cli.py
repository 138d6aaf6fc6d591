"""Tests for the ``python -m repro.obs`` entry point: exports and critpath."""

import json

import pytest

from repro.obs.__main__ import main


def test_cli_writes_reports_and_summary(tmp_path, capsys):
    out = tmp_path / "report"
    code = main([
        "--out", str(out), "--seed", "5", "--clients", "2",
        "--warmup", "0.01", "--duration", "0.03",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "requests completed:" in text
    assert "ecall transitions:" in text
    # The critpath report follows the summary.
    assert text.index("critical-path attribution") > text.index("mode switches:")
    for name in ("metrics.jsonl", "trace.json", "critpath.txt", "critpath.json"):
        assert (out / name).exists()
    doc = json.loads((out / "trace.json").read_text())
    assert doc["traceEvents"]
    assert any(e.get("args", {}).get("critical") for e in doc["traceEvents"])


def test_cli_shards_attributes_the_sharded_cell(tmp_path, capsys):
    out = tmp_path / "report"
    assert main([
        "--out", str(out), "--shards", "2", "--warmup", "0.005",
        "--duration", "0.015",
    ]) == 0
    text = capsys.readouterr().out
    assert "sharded writes, 2 groups, seed 42" in text
    assert "forward_hop" in (out / "critpath.txt").read_text()


def test_cli_format_subset(tmp_path):
    # The format set is fixed: both exports plus the critpath files.
    out = tmp_path / "report"
    assert main([
        "--out", str(out), "--clients", "2", "--warmup", "0.01",
        "--duration", "0.02",
    ]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "critpath.json", "critpath.txt", "metrics.jsonl", "trace.json",
    ]


def test_cli_rejects_unknown_format(tmp_path):
    # There is no format selection; ``--formats`` is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "bad"), "--formats", "jsonl"])
    assert exc.value.code == 2
    assert not (tmp_path / "bad").exists()


def test_cli_batching_is_off_or_adaptive(tmp_path):
    with pytest.raises(SystemExit):
        main(["--out", str(tmp_path), "--batching", "4"])
