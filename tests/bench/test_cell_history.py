"""Every `_run_system` cell records its history and checks it."""

import random

import pytest

from repro.analysis.linearizability import OpRecord, find_violation
from repro.bench.experiments import _run_system, _VersionHistory, mixed_source


@pytest.mark.parametrize("system", ["bl", "etroxy"])
def test_cell_history_is_recorded_and_a_forged_stale_read_is_flagged(system):
    cluster, _ = _run_system(
        system, mixed_source(0.3, random.Random(3), key_space=2), reply_size=10,
        n_clients=4, warmup=0.005, duration=0.01,
    )
    history = cluster.history
    writes = [r for r in history if r.kind == "put"]
    assert writes and len(writes) < len(history)
    assert find_violation(history) is None

    # A read, after the last write of a key ended, of that key's first
    # version.
    first = min(writes, key=lambda r: r.value)
    last = max((r for r in writes if r.key == first.key), key=lambda r: r.value)
    assert last.value > first.value
    stale = OpRecord("forger", "get", first.key, first.value, last.end + 1, last.end + 2)
    assert "not linearizable" in find_violation(history + [stale])


def test_reads_of_writes_in_flight_are_dropped_and_others_kept():
    recorder = _VersionHistory(None)
    recorder.writes_invoked["k"] = 2  # version 1 completed, one in flight
    recorder.records = [
        OpRecord("a", "put", "k", 1, 0.0, 1.0),
        OpRecord("b", "get", "k", 2, 2.0, 3.0),  # the in-flight write's value
        OpRecord("c", "get", "k", 3, 2.0, 3.0),  # beyond every invoked write
    ]
    assert [r.client for r in recorder.history()] == ["a", "c"]
    assert "never written" in find_violation(recorder.history())
