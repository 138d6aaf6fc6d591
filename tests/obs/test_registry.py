"""Unit tests for the metrics registry."""

import pytest

from repro.obs.registry import Registry, RegistryError


def test_counter_inc_and_value():
    reg = Registry()
    c = reg.counter("ops_total", node="r0")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.value("ops_total", node="r0") == 5


def test_counter_rejects_negative_increment():
    c = Registry().counter("ops_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_get_or_create_same_instrument():
    reg = Registry()
    a = reg.counter("ops_total", node="r0")
    b = reg.counter("ops_total", node="r0")
    assert a is b
    assert reg.counter("ops_total", node="r1") is not a


def test_gauge_set():
    reg = Registry()
    g = reg.gauge("depth", node="r0")
    g.set(10.0)
    g.set(2.5)
    assert reg.value("depth", node="r0") == 2.5
    assert reg.value("depth", node="r1") == 0


def test_kind_conflict_rejected():
    reg = Registry()
    reg.counter("x_total")
    with pytest.raises(RegistryError):
        reg.gauge("x_total")


def test_invalid_names_rejected():
    reg = Registry()
    with pytest.raises(RegistryError):
        reg.counter("bad-name")
    with pytest.raises(RegistryError):
        reg.counter("ok_total", **{"bad-label": "v"})


def test_total_sums_over_matching_labels():
    reg = Registry()
    reg.counter("reads_total", node="r0", outcome="hit").inc(3)
    reg.counter("reads_total", node="r1", outcome="hit").inc(2)
    reg.counter("reads_total", node="r0", outcome="miss").inc(7)
    assert reg.total("reads_total") == 12
    assert reg.total("reads_total", outcome="hit") == 5
    assert reg.total("reads_total", node="r0") == 10
    assert reg.total("missing_total") == 0


def test_families_sorted_by_name():
    reg = Registry()
    reg.counter("zz_total")
    reg.gauge("aa")
    assert [f.name for f in reg.families()] == ["aa", "zz_total"]
