"""Invariant checkers against known-good and known-bad histories."""

from repro.analysis.linearizability import OpRecord
from repro.faults.invariants import (
    check_counter_monotonicity,
    check_linearizability,
    check_liveness,
    find_counter_regression,
)


def rec(client, kind, key, value, start, end):
    return OpRecord(client, kind, key, value, start, end)


# -- linearizability ---------------------------------------------------------


def test_linearizability_accepts_sequential_history():
    history = [
        rec("c1", "put", "k", b"a", 0.0, 1.0),
        rec("c2", "get", "k", b"a", 2.0, 3.0),
        rec("c1", "put", "k", b"b", 4.0, 5.0),
        rec("c2", "get", "k", b"b", 6.0, 7.0),
    ]
    assert check_linearizability(history).ok


def test_linearizability_rejects_phantom_value():
    history = [
        rec("c1", "put", "k", b"a", 0.0, 1.0),
        rec("c2", "get", "k", b"b", 2.0, 3.0),  # b was never written
    ]
    result = check_linearizability(history)
    assert not result.ok
    assert "'k'" in result.detail


def test_linearizability_rejects_reordered_reads():
    # Both reads strictly after both writes, observing values in an
    # order no sequential register could produce.
    history = [
        rec("c1", "put", "k", b"a", 0.0, 1.0),
        rec("c1", "put", "k", b"b", 2.0, 3.0),
        rec("c2", "get", "k", b"b", 4.0, 5.0),
        rec("c2", "get", "k", b"a", 6.0, 7.0),  # regressed to the old value
    ]
    assert not check_linearizability(history).ok


# -- liveness ----------------------------------------------------------------


def test_liveness_flags_unfinished_drivers():
    assert check_liveness([]).ok
    result = check_liveness(["client-2", "client-1"])
    assert not result.ok
    assert "client-1, client-2" in result.detail


# -- stale reads: linearizability violations under unique writes ----------


def test_stale_read_detected():
    history = [
        rec("c1", "put", "k", b"a", 0.0, 1.0),
        rec("c1", "put", "k", b"b", 2.0, 3.0),
        rec("c2", "get", "k", b"a", 4.0, 5.0),  # overwritten before the read
    ]
    result = check_linearizability(history)
    assert not result.ok
    assert "b'a'" in result.detail and "b'b'" in result.detail


def test_stale_none_read_detected():
    history = [
        rec("c1", "put", "k", b"a", 0.0, 1.0),
        rec("c2", "get", "k", None, 2.0, 3.0),  # put completed, read saw nothing
    ]
    assert not check_linearizability(history).ok


def test_concurrent_read_is_not_stale():
    # The newer put overlaps the read: either order is legal.
    history = [
        rec("c1", "put", "k", b"a", 0.0, 1.0),
        rec("c1", "put", "k", b"b", 2.0, 5.0),
        rec("c2", "get", "k", b"a", 3.0, 4.0),
    ]
    assert check_linearizability(history).ok


def test_alien_value_is_left_to_linearizability():
    history = [
        rec("c1", "put", "k", b"a", 0.0, 1.0),
        rec("c2", "get", "k", b"zz", 2.0, 3.0),
    ]
    result = check_linearizability(history)
    assert not result.ok
    assert "never written" in result.detail


# -- counter monotonicity ----------------------------------------------------


def test_counter_chain_monotone_passes():
    chains = {
        "replica-0": [{"order/0": 5}, {"order/0": 5}, {"order/0": 9}],
        "replica-1": [{"order/0": 3}],
    }
    assert check_counter_monotonicity(chains).ok


def test_counter_rollback_detected():
    chains = {"replica-0": [{"order/0": 9}, {"order/0": 4}]}
    result = check_counter_monotonicity(chains)
    assert not result.ok
    assert "rolled back 9 -> 4" in result.detail


def test_vanished_counter_detected():
    chains = {"replica-0": [{"order/0": 9}, {}]}
    assert "vanished" in find_counter_regression(chains)


def test_new_counters_may_appear():
    chains = {"replica-0": [{"a": 1}, {"a": 1, "b": 7}]}
    assert find_counter_regression(chains) is None
