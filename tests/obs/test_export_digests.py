"""The observability exports are byte-stable: pinned by digest.

"Identical to a second run" only proves determinism; these digests prove
that a change to how the layers report (DESIGN.md D14) leaves *what* is
reported untouched: every span id, parent, attribute, metric series and
health / audit verdict of a fixed run. They were recorded on the commit
before the probe bus replaced the ``obs.*`` hook methods and pass
unedited through that refactor. A change that moves one on purpose
re-records it and says why (the ``tests/deploy/test_assembly.py`` idiom).

Re-recorded on purpose when the registry became counters and gauges
(DESIGN.md D21): the three ``metrics.jsonl`` digests and
``SHARDED_SPANS``, whose files lost their ``histogram`` and
``quantile`` records and the always-zero ``replica_batch_flush_drain``
gauge; every other line is the same bytes in the same order. The
``metrics.prom`` digests went with the Prometheus export. The
``trace.json`` digests, ``HEALTH`` and ``AUDIT`` did not move.

Re-recorded on purpose when the quantile sketch went (DESIGN.md D23):
``HEALTH`` and ``AUDIT``'s ``evidence.json``, because an SLO window's
p99 is now ``analysis.metrics.percentile`` over its latencies. Only the
``value`` / ``worst`` fields of the one ``slo_violation`` event and its
evidence metric moved (1.000627 -> 0.980621 in ``HEALTH``, 1.000561 ->
0.970554 in the evidence, whose signature covers it); every event keeps
its kind, time and window, and ``audit.json`` did not move.

Re-recorded on purpose when the five health kinds that never diagnosed
a scenario went (DESIGN.md D27): ``HEALTH`` alone, because its
``detectors`` list now names the seven kept detectors (and
``mode_switch`` instead of ``mode_switch_churn``). Its events, SLO
summaries, flight summary and bundles are the same bytes; ``AUDIT``,
``SHARDED_SPANS`` and every ``metrics.jsonl`` / ``trace.json`` digest
did not move.

CI's ``obs-smoke`` job runs this file on its own, so "identical to a
second run" there is also "identical to what is committed".
"""

import hashlib

import pytest

from repro.bench.critpath import attributed_sharded_run
from repro.obs.__main__ import run_workload
from repro.obs.audit.harness import run_localization
from repro.obs.audit.plane import write_audit_report
from repro.obs.export import REPORT_FILES, write_report
from repro.obs.health import run_detection
from repro.obs.health.plane import write_health_report

# cell -> (run_workload keywords, {export file: sha256})
WORKLOADS = {
    "etroxy": (dict(system="etroxy"), {
        "metrics.jsonl":
            "d8da03dceefea4ab4099c17bdbfb148aee192e89c8eb7f1ca974cdfd6ef1d92b",
        "trace.json":
            "28c4bc7b8d1ae0561c540f9560c745a9904f794a44618d74549d13e3647e5e32",
    }),
    "bl": (dict(system="bl"), {
        "metrics.jsonl":
            "e4836e4b1148e1d428c7fe0a668c5bec4afa97a5bffb7ed29219bead0c64ed30",
        "trace.json":
            "86de365faf6a2eb1a6cc676a2198cf4f398927ad4bfadaff89e97bb76c18ccde",
    }),
    "etroxy-adaptive": (dict(system="etroxy", batching="adaptive"), {
        "metrics.jsonl":
            "1d3b836b270c0a8ffd61cf6b78120478c592524174b91fb7bf419c62387b0294",
        "trace.json":
            "53974a611f5f2be0da31cabd75a5fa98e3f30883d54741e5855bb4b3d7b7d436",
    }),
}

SHARDED_SPANS = "1eb6a0338a1be330d56dec678b6ebedc799bb5c391af84c5ab76f69aed5251ca"
HEALTH = "40a04111aef32ad1de753703cc603d537a7dacf54833a5362b82207a32d75b7b"
AUDIT = {
    "audit.json": "0e4b519de941da61c2fd6e865fc3f769401912258fc5f047d21a79d062a6a075",
    "evidence.json": "0aa3d6f32b0edff51440252e7ec764a7ef0e2d92b8738bfd9c47278d64c55bb3",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cell", sorted(WORKLOADS))
def test_report_files_are_pinned(cell, tmp_path):
    kwargs, expected = WORKLOADS[cell]
    plane, _summary = run_workload(
        seed=42, n_clients=4, warmup=0.02, duration=0.1, **kwargs
    )
    written = write_report(tmp_path, plane.registry, plane.spans.spans)
    assert set(written) == set(REPORT_FILES)
    assert {path.name: _sha(path) for path in written.values()} == expected


def test_sharded_span_export_is_pinned(tmp_path):
    """Two groups: ``shard.forward`` hops opened on one node and closed
    on another, inside one connected trace per request."""
    _analysis, _summary, _cluster, plane = attributed_sharded_run(
        shards=2, seed=42, n_clients=6, warmup=0.005, duration=0.015
    )
    written = write_report(tmp_path, plane.registry, plane.spans.spans)
    assert _sha(written["jsonl"]) == SHARDED_SPANS


def test_health_report_is_pinned(tmp_path):
    run = run_detection("enclave_reboot_rollback", 1)
    written = write_health_report(tmp_path, run["plane"])
    assert _sha(written["health"]) == HEALTH


def test_audit_and_evidence_are_pinned(tmp_path):
    run = run_localization("host_tamper_replies", 1)
    written = write_audit_report(
        tmp_path, run["plane"],
        meta={"scenario": run["scenario"], "seed": run["seed"],
              "shards": run["shards"], "batching": run["batching"]},
    )
    assert {
        name: _sha(written[key])
        for key, name in (("audit", "audit.json"), ("evidence", "evidence.json"))
    } == AUDIT
