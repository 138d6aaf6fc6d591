"""Detection-latency harness: chaos scenarios × the health plane.

Every run of a :mod:`repro.faults` campaign swept with
``plane=HealthPlane`` is scored here: the sim-time gap between the first
fault injection (the scenario's own ``injections`` timeline) and the
first health event of an *expected* kind. Fault-free scenarios invert
the check: any health event at all is a false positive.

The scoring is the empirical anchor for every detector threshold: the
tracked ``benchmarks/results/health_detection.txt`` table is
regenerated from it (``python -m repro.bench health``), and
``python -m repro.faults --plane health`` fails when a catalogued
scenario stops being detected or a quiet cell starts paging.
"""

from __future__ import annotations

from ...faults.campaign import run_scenario
from ...faults.schedule import get_scenario
from .plane import HealthPlane

#: Scenario -> health-event kinds that count as a correct diagnosis.
#: An empty tuple means the scenario is fault-free: the health plane
#: must stay silent and every event is a false positive.
EXPECTED: dict[str, tuple[str, ...]] = {
    "healthy_control": (),
    "troxy_crash_failover": ("replica_divergence", "client_retry_spike"),
    "leader_crash_view_change": ("view_change", "replica_divergence"),
    "crash_restart_recovery": ("replica_divergence",),
    "enclave_reboot_rollback": ("enclave_reboot",),
    "partition_minority": ("replica_divergence",),
    "message_delay_burst": ("slo_violation", "client_retry_spike"),
    "message_loss_burst": ("client_retry_spike",),
    "reply_corruption": ("client_retry_spike",),
    "host_tamper_replies": ("client_retry_spike",),
    "write_contention_attack": ("mode_switch",),
    "unresponsive_cache_peer": ("mode_switch", "slo_violation"),
    # Lease scenarios (docs/READS.md): leases are enabled and the fault
    # targets the lease machinery itself.
    "lease_partition_expiry": (
        "replica_divergence", "client_retry_spike", "slo_violation",
    ),
    "lease_enclave_reboot": ("enclave_reboot",),
    "lease_migration_freeze": ("slo_violation", "client_retry_spike"),
    # Sharded scenarios (docs/SHARDING.md) build two agreement groups.
    "shard_migration_partition": (
        "replica_divergence", "client_retry_spike", "shard_imbalance",
    ),
    "shard_migration_leader_crash": (
        "migration_stall", "view_change", "client_retry_spike",
    ),
    "shard_rebalance_contention": ("mode_switch", "shard_imbalance"),
}


def detection(run: dict) -> dict:
    """Score one campaign run record that carries its :class:`HealthPlane`.

    Returns a JSON-serialisable verdict: the gap between the first
    injection and the first health event of an expected kind, and the
    false positives (any event of a fault-free run, or one before the
    first injection).
    """
    plane = run["plane"]
    expected = EXPECTED.get(run["scenario"], ())
    injected_t = min((inj["t"] for inj in run["injections"]), default=None)

    detected_t = None
    detected_kind = None
    false_positives = 0
    for event in plane.events:
        matches = event.kind in expected and (
            injected_t is None or event.t >= injected_t
        )
        if matches and detected_t is None:
            detected_t = event.t
            detected_kind = event.kind
        if not expected or (injected_t is not None and event.t < injected_t):
            false_positives += 1

    if expected:
        ok = detected_t is not None
    else:
        ok = not plane.events
    return {
        "scenario": run["scenario"],
        "seed": run["seed"],
        "expected": list(expected),
        "injections": len(run["injections"]),
        "injected_t": injected_t,
        "detected_t": detected_t,
        "detected_kind": detected_kind,
        "detection_latency": (
            None if detected_t is None or injected_t is None
            else round(detected_t - injected_t, 9)
        ),
        "events_total": len(plane.events),
        "event_counts": plane.health_report()["event_counts"],
        "false_positives": false_positives,
        "invariants_ok": run["ok"],
        "ok": ok,
    }


def run_detection(name: str, seed: int) -> dict:
    """One scenario × seed with the health plane attached.

    The verdict of :func:`detection` plus the live :class:`HealthPlane`
    under ``plane`` (for bundle dumps), a key to pop before dumping.
    """
    run = run_scenario(get_scenario(name), seed, plane=HealthPlane())
    return {**detection(run), "plane": run["plane"]}


def detection_report(campaign: dict) -> dict:
    """Score every run of a ``run_campaign(..., plane=HealthPlane)``."""
    runs = [detection(run) for run in campaign["runs"]]
    missed = [
        {"scenario": r["scenario"], "seed": r["seed"]}
        for r in runs if not r["ok"]
    ]
    false_positives = sum(r["false_positives"] for r in runs)
    return {
        "runs": runs,
        "summary": {
            "total": len(runs),
            "detected": len(runs) - len(missed),
            "missed": missed,
            "false_positives": false_positives,
            "ok": not missed and not false_positives,
        },
    }


def _fmt_t(value) -> str:
    return "-" if value is None else f"{value * 1e3:8.1f}"


def render_table(report: dict) -> str:
    """Fixed-width detection-latency table (tracked results format)."""
    lines = [
        "Health-plane detection latency (sim-time, ms)",
        "=" * 45,
        f"{'scenario':<28} {'seed':>4} {'inject':>8} {'detect':>8} "
        f"{'latency':>8}  {'first event':<22} verdict",
        "-" * 96,
    ]
    for run in report["runs"]:
        if run["expected"]:
            verdict = "DETECTED" if run["ok"] else "MISSED"
        else:
            verdict = "QUIET" if run["ok"] else "FALSE-POSITIVE"
        lines.append(
            f"{run['scenario']:<28} {run['seed']:>4} "
            f"{_fmt_t(run['injected_t']):>8} {_fmt_t(run['detected_t']):>8} "
            f"{_fmt_t(run['detection_latency']):>8}  "
            f"{(run['detected_kind'] or '-'):<22} {verdict}"
        )
    summary = report["summary"]
    lines.append("-" * 96)
    lines.append(
        f"{summary['detected']}/{summary['total']} scenarios diagnosed, "
        f"{summary['false_positives']} false positive(s)"
        + ("" if not summary["missed"] else f", missed: {summary['missed']}")
    )
    return "\n".join(lines)
