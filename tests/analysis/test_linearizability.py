"""Unit tests for the linearizability checker (the zone check)."""

import time

import pytest

from repro.analysis.linearizability import OpRecord, check_linearizable, find_violation


def put(client, key, value, start, end):
    return OpRecord(client, "put", key, value, start, end)


def get(client, key, value, start, end):
    return OpRecord(client, "get", key, value, start, end)


def test_empty_history_linearizable():
    assert check_linearizable([])


def test_sequential_history():
    history = [
        put("a", "k", b"1", 0, 1),
        get("a", "k", b"1", 2, 3),
        put("a", "k", b"2", 4, 5),
        get("a", "k", b"2", 6, 7),
    ]
    assert check_linearizable(history)


def test_stale_read_rejected():
    history = [
        put("a", "k", b"1", 0, 1),
        put("a", "k", b"2", 2, 3),
        get("b", "k", b"1", 4, 5),  # reads the old value after put(2) ended
    ]
    assert not check_linearizable(history)
    assert "not linearizable" in find_violation(history)


def test_concurrent_ops_may_order_either_way():
    history = [
        put("a", "k", b"1", 0, 10),
        get("b", "k", None, 2, 3),  # overlaps the put: may see initial None
    ]
    assert check_linearizable(history)
    history2 = [
        put("a", "k", b"1", 0, 10),
        get("b", "k", b"1", 2, 3),  # or may see the new value
    ]
    assert check_linearizable(history2)


def test_read_of_never_written_value_rejected():
    history = [
        put("a", "k", b"1", 0, 1),
        get("b", "k", b"999", 2, 3),
    ]
    assert not check_linearizable(history)


def test_initial_value_respected():
    history = [get("a", "k", b"init", 0, 1)]
    assert check_linearizable(history, initial={"k": b"init"})
    assert not check_linearizable(history, initial={"k": b"other"})


def test_real_time_order_enforced_between_clients():
    # b's get finished before c's get started; both read, but values must
    # be consistent with some single order of the overlapping puts.
    history = [
        put("a", "k", b"1", 0, 1),
        put("a", "k", b"2", 2, 3),
        get("b", "k", b"2", 4, 5),
        get("c", "k", b"1", 6, 7),  # goes backwards in time: illegal
    ]
    assert not check_linearizable(history)


def test_keys_checked_independently():
    history = [
        put("a", "x", b"1", 0, 1),
        put("a", "y", b"9", 0, 1),
        get("b", "x", b"1", 2, 3),
        get("b", "y", b"9", 2, 3),
    ]
    assert check_linearizable(history)


def test_interleaved_writers_with_consistent_reads():
    history = [
        put("a", "k", b"a1", 0.0, 2.0),
        put("b", "k", b"b1", 1.0, 3.0),
        get("c", "k", b"a1", 3.5, 4.0),  # a1 after b1 is a legal order
        get("c", "k", b"a1", 4.5, 5.0),
    ]
    assert check_linearizable(history)


def test_flip_flop_read_rejected():
    history = [
        put("a", "k", b"a1", 0.0, 2.0),
        put("b", "k", b"b1", 1.0, 3.0),
        get("c", "k", b"a1", 3.5, 4.0),
        get("c", "k", b"b1", 4.5, 5.0),  # value flips back: no legal order
        get("c", "k", b"a1", 5.5, 6.0),
    ]
    assert not check_linearizable(history)


def test_bad_records_rejected():
    with pytest.raises(ValueError):
        OpRecord("a", "cas", "k", b"1", 0, 1)
    with pytest.raises(ValueError):
        OpRecord("a", "put", "k", b"1", 5, 1)


def test_find_violation_none_for_good_history():
    assert find_violation([put("a", "k", b"1", 0, 1)]) is None


def test_stale_none_read_rejected():
    history = [
        put("a", "k", b"1", 0, 1),
        get("b", "k", None, 2, 3),  # put completed, read saw the initial value
    ]
    assert not check_linearizable(history)


def test_read_ending_before_its_write_starts_rejected():
    history = [
        get("b", "k", b"1", 0, 1),  # a value from the future
        put("a", "k", b"1", 2, 3),
    ]
    assert not check_linearizable(history)


def test_backward_zone_inside_forward_zone_rejected():
    # b1's write lies wholly between two reads of a1.
    history = [
        put("a", "k", b"a1", 0, 1),
        get("c", "k", b"a1", 1.5, 2),
        put("b", "k", b"b1", 3, 4),
        get("c", "k", b"a1", 5, 6),
    ]
    assert not check_linearizable(history)


def test_touching_intervals_are_concurrent():
    # A read starting exactly when a write ends may still precede it.
    history = [
        put("a", "k", b"1", 0, 1),
        put("a", "k", b"2", 1, 2),
        get("b", "k", b"1", 2, 3),
    ]
    assert check_linearizable(history)


def test_violation_names_both_clusters_and_their_zones():
    history = [
        put("a", "k", b"1", 0, 1),
        put("a", "k", b"2", 2, 3),
        get("b", "k", b"1", 4, 5),
    ]
    message = find_violation(history)
    assert "b'1' [1.000000, 4.000000]" in message
    assert "b'2' [2.000000, 3.000000]" in message


def test_repeated_write_value_raises():
    history = [put("a", "k", b"1", 0, 1), put("b", "k", b"1", 2, 3)]
    with pytest.raises(ValueError):
        check_linearizable(history)
    with pytest.raises(ValueError):  # the initial value counts as written
        check_linearizable([put("a", "k", b"init", 0, 1)], initial={"k": b"init"})
    # The same value on two keys is two registers.
    assert check_linearizable([put("a", "x", b"1", 0, 1), put("a", "y", b"1", 0, 1)])


def test_large_history_performance():
    # 50 000 ops on one key: a writer and two readers, each read
    # overlapping the next write, checked well inside a second.
    history = []
    for i in range(1, 16_667):
        t = 3.0 * i
        history.append(put("w", "k", i, t, t + 2.0))
        history.append(get("r", "k", i, t + 1.0, t + 2.5))
        history.append(get("s", "k", i - 1 or None, t - 1.0, t + 0.5))
    assert len(history) > 49_990
    started = time.perf_counter()
    assert check_linearizable(history)
    assert time.perf_counter() - started < 1.0
