"""End-to-end audit runs: localization, signed bundles, determinism, CLI."""

import json

from repro.deploy import MASTER_SECRET
from repro.crypto.keys import KeyRing
from repro.faults.__main__ import main as faults_main
from repro.obs.audit import verify_bundle
from repro.obs.audit.auditor import Verdict
from repro.obs.audit.harness import run_localization, score_blame


def _group_key():
    # The offline verifier needs only the deployment's master secret,
    # not the cluster: the group key is derivable from it alone.
    return KeyRing(MASTER_SECRET).troxy_group()


def test_host_tamper_is_localized():
    run = run_localization("host_tamper_replies", seed=1)
    assert run["triggered"]
    assert run["ok"]
    assert run["localized"] == ["tamper:replica-0"]
    kinds = {v["kind"] for v in run["verdicts"]}
    assert "tamper" in kinds
    assert run["checkpoints"] > 0


def test_healthy_control_never_triggers_the_auditor():
    run = run_localization("healthy_control", seed=1)
    assert not run["triggered"]
    assert run["verdicts"] == []
    assert run["ok"]
    # Probes still ran: the ledgers exist even though the auditor slept.
    assert run["ledger_entries"] > 0


def test_crash_is_localized_as_omission():
    run = run_localization("troxy_crash_failover", seed=1)
    assert run["ok"]
    omissions = [v for v in run["verdicts"] if v["kind"] == "omission"]
    assert [v["culprits"] for v in omissions] == [["replica-1"]]


def test_partition_blames_links_not_nodes():
    run = run_localization("partition_minority", seed=1)
    assert run["ok"]
    assert not any(
        v["kind"] in ("omission", "tamper") for v in run["verdicts"]
    )


def test_evidence_bundle_verifies_offline_and_detects_mutation():
    run = run_localization("host_tamper_replies", seed=1)
    bundle = json.loads(json.dumps(run["plane"].evidence_bundle()))
    key = _group_key()
    check = verify_bundle(bundle, key=key)
    assert check.ok, check.problems

    forged = json.loads(json.dumps(bundle))
    victim = sorted(forged["payload"]["ledgers"])[0]
    forged["payload"]["ledgers"][victim]["entries"][0]["peer"] = "replica-9"
    check = verify_bundle(forged, key=key)
    assert not check.ok
    assert any("chain broken" in p for p in check.problems)
    assert any("signature" in p for p in check.problems)


def test_same_seed_bundles_are_byte_identical():
    def bundle_bytes():
        run = run_localization("host_tamper_replies", seed=2)
        return json.dumps(
            run["plane"].evidence_bundle(), sort_keys=True
        ).encode()

    assert bundle_bytes() == bundle_bytes()


def test_score_blame_counts_wrongly_blamed_replicas():
    ground = [{"blame": "tamper", "targets": ["replica-0"], "required": True}]
    good = [Verdict("tamper", ("replica-0",), 0.1, "d")]
    framing = [
        Verdict("tamper", ("replica-0",), 0.1, "d"),
        Verdict("omission", ("replica-1",), 0.2, "d"),
    ]
    assert score_blame(good, ground) == {
        "localized": ["tamper:replica-0"], "missed": [], "false_blame": [],
    }
    score = score_blame(framing, ground)
    assert score["false_blame"] == ["node:replica-1"]


def test_score_blame_permits_partition_links_only():
    ground = [{
        "blame": "link", "required": False,
        "pairs": [["replica-0", "replica-2"], ["replica-1", "replica-2"]],
    }]
    hedged = [Verdict(
        "link_omission",
        ("replica-0->replica-2", "replica-2->replica-1"), 0.1, "d",
    )]
    stray = [Verdict("link_omission", ("replica-0->replica-1",), 0.1, "d")]
    assert score_blame(hedged, ground)["false_blame"] == []
    assert score_blame(stray, ground)["false_blame"] == [
        "link:replica-0->replica-1",
    ]


def test_cli_roundtrip(tmp_path):
    out = tmp_path / "audit-run"
    code = faults_main([
        "--plane", "audit", "--scenarios", "host_tamper_replies", "--seeds", "1",
        "--out", str(out),
    ])
    assert code == 0
    cell = out / "host_tamper_replies-seed1-sh1-boff"
    evidence = json.loads((cell / "evidence.json").read_text())
    assert verify_bundle(evidence, key=_group_key()).ok
    audit = json.loads((cell / "audit.json").read_text())
    assert audit["triggered"] and audit["verdict_counts"].get("tamper") == 1
    assert (cell / "health.json").exists()
    table = (out / "blame.txt").read_text()
    assert "LOCALIZED" in table and "FALSE-BLAME" not in table
    report = json.loads((out / "blame.json").read_text())
    assert report["summary"]["localized"] == report["summary"]["attributable"]
