"""Unit tests for the anomaly-detector catalogue (pure window math)."""

from repro.obs.health.detectors import (
    ClientRetrySpikeDetector,
    EnclaveRebootDetector,
    ModeSwitchDetector,
    ReplicaDivergenceDetector,
    ViewChangeDetector,
    default_detectors,
)
from repro.obs.health.window import WindowSnapshot


def _win(index=0):
    return WindowSnapshot(start=index * 0.25, end=(index + 1) * 0.25, index=index)


def _cell(win, executes=(8, 8, 8)):
    for i, n in enumerate(executes):
        win.node(f"replica-{i}").executes = n
    return win


def test_replica_divergence_fires_on_lagging_replica():
    det = ReplicaDivergenceDetector()
    win = _cell(_win(), executes=(8, 8, 0))
    findings = det.evaluate(win)
    assert [f.node for f in findings] == ["replica-2"]
    assert findings[0].kind == "replica_divergence"
    assert findings[0].severity == "critical"


def test_replica_divergence_quiet_on_healthy_and_idle_cells():
    det = ReplicaDivergenceDetector()
    assert det.evaluate(_cell(_win(), executes=(8, 7, 8))) == []
    # Idle cell: quorum median below the floor -> no verdict.
    assert det.evaluate(_cell(_win(1), executes=(1, 0, 1))) == []
    # Two nodes only (not a quorum-shaped cell) -> no verdict.
    win = _win(2)
    win.node("replica-0").executes = 9
    win.node("replica-1").executes = 0
    assert det.evaluate(win) == []


def test_detectors_are_edge_triggered():
    det = ReplicaDivergenceDetector()
    assert det.evaluate(_cell(_win(0), executes=(8, 8, 0)))
    # Same condition persists -> no re-fire.
    assert det.evaluate(_cell(_win(1), executes=(8, 8, 0))) == []
    # Condition clears ...
    assert det.evaluate(_cell(_win(2), executes=(8, 8, 8))) == []
    # ... and re-appears -> fires again.
    assert det.evaluate(_cell(_win(3), executes=(8, 8, 0)))


def test_mode_switch_and_churn():
    det = ModeSwitchDetector()
    win = _win()
    win.node("replica-0").switches = 1
    findings = det.evaluate(win)
    assert [f.kind for f in findings] == ["mode_switch"]
    assert findings[0].severity == "info"
    # Churn (a switch in every window) is one episode: the condition is
    # still active, so nothing re-fires (edge trigger) ...
    win2 = _win(1)
    win2.node("replica-0").switches = 2
    assert det.evaluate(win2) == []
    # ... until a quiet window re-arms it.
    assert det.evaluate(_win(2)) == []
    win3 = _win(3)
    win3.node("replica-0").switches = 1
    assert [f.kind for f in det.evaluate(win3)] == ["mode_switch"]


def test_view_change_instances_refire():
    det = ViewChangeDetector()
    win = _win()
    node = win.node("replica-0")
    node.view = 1
    node.view_delta = 1
    assert [f.kind for f in det.evaluate(win)] == ["view_change"]
    # A *second* view change is a distinct instance and fires again.
    win2 = _win(1)
    node2 = win2.node("replica-0")
    node2.view = 2
    node2.view_delta = 1
    assert [f.kind for f in det.evaluate(win2)] == ["view_change"]


def test_enclave_reboot():
    det = EnclaveRebootDetector()
    win = _win()
    node = win.node("replica-1")
    node.reboots_delta = 1
    node.cache_clears_delta = 1
    findings = det.evaluate(win)
    assert [f.kind for f in findings] == ["enclave_reboot"]
    assert findings[0].severity == "critical"
    assert det.evaluate(_win(1)) == []


def test_client_retry_spike():
    det = ClientRetrySpikeDetector()
    win = _win()
    win.retries = 2
    win.completed = 5
    findings = det.evaluate(win)
    assert [f.kind for f in findings] == ["client_retry_spike"]
    assert findings[0].node == ""
    assert det.evaluate(_win(1)) == []


def test_default_catalogue_quiet_on_healthy_window():
    win = _cell(_win(), executes=(8, 8, 7))
    node = win.node("replica-0")
    node.fast_hits = 12
    win.completed = 10
    for det in default_detectors():
        assert det.evaluate(win) == [], det.name
