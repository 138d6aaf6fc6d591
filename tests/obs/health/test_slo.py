"""SLO spec validation + tracker evaluation over synthetic windows."""

import pytest

from repro.obs.health.slo import SloSpec, SloTracker, default_slos
from repro.obs.health.window import WindowSnapshot


def _win(index=0):
    return WindowSnapshot(start=index * 0.25, end=(index + 1) * 0.25, index=index)


def test_spec_validation():
    with pytest.raises(ValueError):
        SloSpec(name="x", kind="nope", limit=1.0)
    with pytest.raises(ValueError):
        SloSpec(name="x", kind="latency_quantile", limit=1.0, q=1.5)


def test_latency_quantile_violation():
    spec = SloSpec(
        name="p99", kind="latency_quantile", limit=0.010, q=0.99,
        op_class="read", min_samples=2,
    )
    tracker = SloTracker(spec)
    win = _win()
    for v in (0.001, 0.002, 0.050):
        win.observe_latency("read", v)
    finding = tracker.evaluate(win)
    assert finding is not None
    assert finding.kind == "slo_violation"
    assert finding.detail["slo"] == "p99"
    assert finding.detail["value"] > 0.010
    assert tracker.windows_violated == 1
    assert not tracker.summary()["compliant"]


def test_latency_quantile_respects_min_samples():
    spec = SloSpec(
        name="p99", kind="latency_quantile", limit=0.010, min_samples=4,
        op_class="read",
    )
    tracker = SloTracker(spec)
    win = _win()
    win.observe_latency("read", 0.5)  # one terrible sample, below the floor
    assert tracker.evaluate(win) is None
    assert tracker.windows_evaluated == 0


def test_slo_edge_trigger_and_recovery():
    spec = SloSpec(
        name="p99", kind="latency_quantile", limit=0.010, min_samples=1,
        op_class="read",
    )
    tracker = SloTracker(spec)
    bad = _win()
    bad.observe_latency("read", 0.1)
    assert tracker.evaluate(bad) is not None
    bad2 = _win(1)
    bad2.observe_latency("read", 0.2)
    assert tracker.evaluate(bad2) is None  # still breached: no re-fire
    good = _win(2)
    good.observe_latency("read", 0.001)
    assert tracker.evaluate(good) is None
    bad3 = _win(3)
    bad3.observe_latency("read", 0.3)
    assert tracker.evaluate(bad3) is not None  # re-armed after recovery
    assert tracker.windows_violated == 3


def test_hit_rate_floor():
    spec = SloSpec(name="hr", kind="hit_rate_floor", limit=0.5, min_samples=8)
    tracker = SloTracker(spec)
    win = _win()
    node = win.node("replica-0")
    node.fast_hits = 2
    node.fast_conflicts = 6
    node.fast_timeouts = 2
    finding = tracker.evaluate(win)
    assert finding is not None
    assert finding.detail["value"] == pytest.approx(0.2)
    # Too few attempts -> no evaluation.
    small = _win(1)
    small.node("replica-0").fast_conflicts = 3
    assert tracker.evaluate(small) is None


def test_progress_slo():
    spec = SloSpec(name="prog", kind="progress", limit=1.0, severity="critical")
    tracker = SloTracker(spec)
    # Nothing in flight, nothing completed: vacuously fine.
    assert tracker.evaluate(_win()) is None
    # Work in flight but zero completions: violation.
    stuck = _win(1)
    stuck.open_invokes = 3
    finding = tracker.evaluate(stuck)
    assert finding is not None
    assert finding.severity == "critical"
    # Completions present: compliant.
    moving = _win(2)
    moving.open_invokes = 3
    moving.completed = 4
    assert tracker.evaluate(moving) is None


def test_latency_quantile_interpolates_between_samples():
    """p99 of two samples a < b is 0.01·a + 0.99·b (``percentile``),
    not b."""
    spec = SloSpec(
        name="p99", kind="latency_quantile", limit=0.001, q=0.99,
        op_class="write", min_samples=2,
    )
    tracker = SloTracker(spec)
    win = _win()
    a, b = 0.010, 0.050
    win.observe_latency("write", b)
    win.observe_latency("write", a)
    finding = tracker.evaluate(win)
    assert finding.detail["value"] == pytest.approx(0.01 * a + 0.99 * b)
    assert finding.detail["value"] != b
    assert tracker.summary()["worst"] == finding.detail["value"]
    assert win.latency == {"write": [b, a], "all": [b, a]}


def test_default_slos_shape():
    slos = default_slos()
    names = [s.name for s in slos]
    assert names == [
        "read_latency_p99", "write_latency_p99", "fast_read_hit_rate",
        "progress",
    ]
    assert all(isinstance(s, SloSpec) for s in slos)
