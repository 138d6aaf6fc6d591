"""Unit tests for the RNG tree and tracer."""

import pytest

from repro.sim import RngTree, TraceRecord, Tracer


def test_rng_same_path_same_stream():
    tree = RngTree(42)
    a = tree.derive("net", "link-0")
    b = tree.derive("net", "link-0")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_different_paths_diverge():
    tree = RngTree(42)
    assert tree.derive("a").random() != tree.derive("b").random()


def test_rng_different_seeds_diverge():
    assert RngTree(1).derive("x").random() != RngTree(2).derive("x").random()


def test_rng_child_tree_independent():
    tree = RngTree(42)
    child = tree.child("subsystem")
    assert child.derive("x").random() != tree.derive("x").random()
    assert child.derive("x").random() != tree.child("other").derive("x").random()


def test_rng_empty_path_rejected():
    with pytest.raises(ValueError):
        RngTree(1).derive()


def test_tracer_records_and_filters():
    tracer = Tracer()
    tracer.record(1.0, "proto.send", "replica-0", "x")
    tracer.record(2.0, "net.deliver", "replica-1", "y")
    tracer.record(3.0, "proto.send", "replica-1", "z")
    assert len(tracer.records) == 3
    assert len(tracer.filter(category="proto.send")) == 2
    assert len(tracer.filter(node="replica-1")) == 2
    assert len(tracer.filter(category="proto.send", node="replica-1")) == 1


def test_tracer_dump_and_clear():
    tracer = Tracer()
    tracer.record(0.0015, "cat", "node", "something happened")
    text = tracer.dump()
    assert "something happened" in text
    assert "1.500 ms" in text
    tracer.clear()
    assert tracer.records == []


def test_trace_record_str():
    record = TraceRecord(0.5, "cat", "node-1", "detail")
    assert "node-1" in str(record)


def test_tracer_unbounded_by_default():
    tracer = Tracer()
    assert tracer.records == []  # plain list, comparable to literals
    for i in range(1000):
        tracer.record(float(i), "cat", "n", "x")
    assert len(tracer.records) == 1000

