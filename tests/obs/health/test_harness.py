"""End-to-end: HealthPlane over real chaos scenarios + the harness.

Covers the acceptance criteria directly: fault-free runs emit zero
health events and byte-identical reports; catalogued faults are
diagnosed with the expected kind within the run; attaching the health
plane perturbs nothing.
"""

import json

import pytest

from repro.faults.__main__ import main as faults_main
from repro.faults.campaign import run_scenario
from repro.faults.schedule import get_scenario, scenario_names
from repro.obs.health import EXPECTED, HealthPlane, run_detection
from repro.obs.health.plane import write_health_report


def _judged(name, seed=1, **kw):
    report = run_scenario(get_scenario(name), seed, plane=HealthPlane(**kw))
    return report.pop("plane"), report


def test_expected_covers_whole_catalogue():
    assert sorted(EXPECTED) == sorted(scenario_names())


def test_healthy_control_is_quiet_and_deterministic():
    reports = []
    for _ in range(2):
        plane, _ = _judged("healthy_control")
        assert plane.events == []
        assert plane.flight.bundles == []
        assert plane.windows_evaluated > 1
        reports.append(json.dumps(plane.health_report(), sort_keys=True))
    assert reports[0] == reports[1]


def test_health_plane_does_not_perturb_the_run():
    bare = run_scenario(get_scenario("write_contention_attack"), 1)
    _, observed = _judged("write_contention_attack")
    assert json.dumps(bare, sort_keys=True) == json.dumps(
        observed, sort_keys=True
    )


def test_enclave_reboot_diagnosed_with_evidence():
    plane, report = _judged("enclave_reboot_rollback")
    reboots = [e for e in plane.events if e.kind == "enclave_reboot"]
    assert reboots, [e.kind for e in plane.events]
    event = reboots[0]
    injected = min(i["t"] for i in report["injections"])
    assert event.t >= injected
    assert event.severity == "critical"
    assert event.evidence.span_ids, "no forensic span evidence attached"
    assert plane.flight.bundles
    # Events also land in the registry as counters.
    assert plane.registry.total("health_events_total", kind="enclave_reboot") >= 1


def test_detection_verdict_structure():
    verdict = run_detection("troxy_crash_failover", 1)
    verdict.pop("plane")
    assert verdict["ok"]
    assert verdict["detected_kind"] in EXPECTED["troxy_crash_failover"]
    assert verdict["detection_latency"] >= 0
    assert verdict["false_positives"] == 0
    assert verdict["invariants_ok"]
    json.dumps(verdict, sort_keys=True)  # JSON-serialisable


def test_write_health_report_layout(tmp_path):
    plane, _ = _judged("enclave_reboot_rollback")
    written = write_health_report(tmp_path / "out", plane)
    health = json.loads(written["health"].read_text())
    assert health["tool"] == "repro.obs.health"
    assert health["event_count"] == len(plane.events)
    assert (tmp_path / "out" / "bundles").is_dir()


def test_cli_end_to_end_byte_identical(tmp_path):
    argv = [
        "--plane", "health", "--seeds", "1",
        "--scenarios", "healthy_control,enclave_reboot_rollback",
    ]
    outs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}"
        assert faults_main(argv + ["--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "enclave_reboot_rollback-seed1-sh1-boff" / "health.json").exists()
    assert "DETECTED" in (outs[0] / "detection.txt").read_text()
    files1 = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert files1 == files2 and files1
    for rel in files1:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        faults_main(["--plane", "health", "--scenarios", "nope"])


def test_final_partial_window_is_evaluated():
    # A window larger than the horizon still gets judged once at finalize.
    plane, _ = _judged("healthy_control", window=1e6)
    assert plane.windows_evaluated == 1
