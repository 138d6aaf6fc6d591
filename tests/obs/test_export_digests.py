"""The observability exports are byte-stable: pinned by digest.

"Identical to a second run" only proves determinism; these digests prove
that a change to how the layers report (DESIGN.md D14) leaves *what* is
reported untouched: every span id, parent, attribute, metric series and
health / audit verdict of a fixed run. They were recorded on the commit
before the probe bus replaced the ``obs.*`` hook methods and pass
unedited through that refactor. A change that moves one on purpose
re-records it and says why (the ``tests/deploy/test_assembly.py`` idiom).

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
        "metrics.prom":
            "812b27f92ebfb9183c3154b17bbd704cc3040bc072b93428c304b2ff390a6738",
        "metrics.jsonl":
            "6584e839125f8637f9ee1ab9e8e1b07897dfa82b1da962c7c1b3550ffcfa4740",
        "trace.json":
            "28c4bc7b8d1ae0561c540f9560c745a9904f794a44618d74549d13e3647e5e32",
    }),
    "bl": (dict(system="bl"), {
        "metrics.prom":
            "912ddc24a5ee290717c00d3ac1322e0038ca8f1509b31c8d1f309d796ffb177a",
        "metrics.jsonl":
            "eacc8d52b48dfafe8f20d660aebc1f7a583bac7d1927f5de872cb69cf346dcd3",
        "trace.json":
            "86de365faf6a2eb1a6cc676a2198cf4f398927ad4bfadaff89e97bb76c18ccde",
    }),
    "etroxy-adaptive": (dict(system="etroxy", batching="adaptive"), {
        "metrics.prom":
            "cbcc95b00db62fcfe6e2f1dc8b633e114f1e8c61a88fcc145d197c1c423258bc",
        "metrics.jsonl":
            "ccf8e9b5fc0c4d7e6d9be6e19f0570f235d961183f80b7e317e6c6a337738bfc",
        "trace.json":
            "53974a611f5f2be0da31cabd75a5fa98e3f30883d54741e5855bb4b3d7b7d436",
    }),
}

SHARDED_SPANS = "72d88dea8eff51fa7db2bf245216d25704e54ef9762f6e69fa469ac402c2a133"
HEALTH = "ebf2818a6a9b98fb9869ddc4b51567bb4ccbb62a97c1acd457606801297cd1ed"
AUDIT = {
    "audit.json": "0e4b519de941da61c2fd6e865fc3f769401912258fc5f047d21a79d062a6a075",
    "evidence.json": "55a1f0cc541b5b990113b9b758698e38a1a36573b792014e056c537fac40a81c",
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
    written = write_report(tmp_path, plane.registry, plane.spans.spans, ["jsonl"])
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
