"""Smoke test of the perf ledger (``-m bench``; not part of tier-1).

Runs every workload once at a twentieth of the window and pins the three
places a metric name lives — ``spec.py``, what the runner emits and
``BENCHMARK.json`` — to each other::

    PYTHONPATH=src python -m pytest benchmarks/ledger -m bench
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import echo_check
import spec

pytestmark = pytest.mark.bench

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _declared(section: str) -> list:
    return [metric["name"] for metric in MANIFEST[section]]


def _assert_metrics(metrics: dict, section: str) -> None:
    assert list(metrics) == _declared(section)
    units = {metric["name"]: metric["unit"] for metric in MANIFEST[section]}
    for name, metric in metrics.items():
        assert NAME.match(name), name
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name


def test_manifest_is_generated_from_spec():
    assert MANIFEST == spec.manifest()
    names = _declared("end_to_end") + _declared("per_layer")
    names += [workload["name"] for workload in MANIFEST["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)


def test_ledger_emits_every_declared_metric(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        RUN + ["--passes", "1", "--scale", "0.05", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == [w["name"] for w in MANIFEST["workloads"]]
    for name, workload in result["workloads"].items():
        assert workload["correct"], (name, workload["problems"])
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        _assert_metrics(workload["end_to_end"], "end_to_end")
        _assert_metrics(workload["per_layer"], "per_layer")
        for metric in MANIFEST["end_to_end"]:
            assert workload["end_to_end"][metric["name"]]["value"] > 0
    # A result set agrees with itself; the comparison reads what was written.
    agree = subprocess.run(
        RUN + ["--agree", str(out), str(out)], capture_output=True, text=True, timeout=60
    )
    assert agree.returncode == 0, agree.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_mode_prints_one_json_result_last(trace, section):
    done = subprocess.run(
        RUN + ["--workload", "mixed_contended", "--seed", "7", "--seconds", "1",
               "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    _assert_metrics(result["metrics"], section)


def _history(*operations) -> list:
    """(client, key, is_read, reply) operations executed one after another."""
    log = []
    for client, key, is_read, reply in operations:
        echo_check.record_invoke(log, client, key, is_read)
        echo_check.record_return(log, client, key, is_read, reply)
    return log


def test_echo_check_accepts_a_consistent_history():
    log = _history(
        (0, "k1", True, b"k1@0"), (1, "k1", False, b"ok:1"),
        (0, "k1", True, b"k1@1"), (1, "k2", False, b"ok:1"),
    )
    # Concurrent operations may return in either order.
    echo_check.record_invoke(log, 0, "k1", True)
    echo_check.record_invoke(log, 1, "k1", False)
    echo_check.record_return(log, 1, "k1", False, b"ok:2")
    echo_check.record_return(log, 0, "k1", True, b"k1@1")
    assert echo_check.check(log) == []


@pytest.mark.parametrize("operations,complaint", [
    ([(0, "k1", False, b"ok:1"), (1, "k1", True, b"k1@0")], "stale version 0"),
    ([(0, "k1", True, b"k1@3"), (1, "k1", True, b"k1@2")], "stale version 2"),
    ([(0, "k1", False, b"ok:1"), (1, "k1", False, b"ok:1")], "acknowledged as version 1"),
    ([(0, "k1", True, b"k2@0")], "malformed reply"),
    ([(0, "k1", False, b"nope")], "malformed reply"),
])
def test_echo_check_reports_violations(operations, complaint):
    violations = echo_check.check(_history(*operations))
    assert len(violations) == 1 and complaint in violations[0]
