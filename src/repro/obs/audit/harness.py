"""Blame-localization harness: chaos scenarios × the audit plane.

Every (scenario, seed, shards, batching) cell of a :mod:`repro.faults`
campaign swept with ``plane=AuditPlane`` is scored here against the
ground truth each injected fault names for itself
(``Fault.ground_truth``): every *required* ground-truth entry (crash →
omission, host tamper / wire corruption → tamper, adversarial writers →
contention) must be localized, and no healthy replica or workload
client may ever be blamed. Link-level ground truth (partitions, lossy
links) is permissive — it whitelists link suspicion without demanding
it.

The tracked ``benchmarks/results/audit_blame.txt`` table is
regenerated from here (``python -m repro.bench audit``), and the CI
obs-smoke job replays one tampering cell twice through ``python -m
repro.faults --plane audit`` and byte-diffs the signed evidence
bundles.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

from ...faults.campaign import run_scenario
from ...faults.schedule import get_scenario
from .plane import AuditPlane


def describe_ground(ground: dict) -> str:
    """Short label of one ground-truth entry for tables and reports."""
    blame = ground["blame"]
    if blame == "node":
        return "omission:" + ",".join(ground["targets"])
    if blame == "tamper":
        return "tamper:" + (",".join(ground["targets"]) if "targets" in ground
                            else ground["src"])
    if blame == "client":
        return f"contention:{len(ground['targets'])} attacker(s)"
    if blame == "link":
        if "pairs" in ground:
            return f"links:{len(ground['pairs'])} partitioned pair(s)"
        return f"links:{ground['src']}->{ground['dst']}"
    return blame


def score_blame(verdicts: list, ground_truths: list[dict]) -> dict:
    """Compare verdicts with ground truth; find misses and false blame."""
    omission = {c for v in verdicts if v.kind == "omission" for c in v.culprits}
    tamper = {
        c for v in verdicts if v.kind in ("tamper", "equivocation")
        for c in v.culprits
    }
    links = {c for v in verdicts if v.kind == "link_omission" for c in v.culprits}
    clients = {c for v in verdicts if v.kind == "contention" for c in v.culprits}

    missed: list[str] = []
    allowed_nodes: set[str] = set()
    allowed_clients: set[str] = set()
    link_specs: list = []
    for ground in ground_truths:
        blame = ground["blame"]
        required = ground.get("required", False)
        if blame == "node":
            targets = set(ground["targets"])
            allowed_nodes |= targets
            if required and not targets <= omission:
                missed.append(describe_ground(ground))
        elif blame == "tamper":
            if "targets" in ground:
                targets = set(ground["targets"])
                allowed_nodes |= targets
                hit = targets <= tamper
            else:
                matching = {c for c in tamper if fnmatchcase(c, ground["src"])}
                allowed_nodes |= matching
                hit = bool(matching)
            if required and not hit:
                missed.append(describe_ground(ground))
        elif blame == "client":
            targets = set(ground["targets"])
            allowed_clients |= targets
            if required and not targets <= clients:
                missed.append(describe_ground(ground))
        elif blame == "link":
            link_specs.append(ground)

    def link_allowed(link: str) -> bool:
        src, dst = link.split("->", 1)
        # Links into (or out of) a legitimately blamed node are part of
        # that node's evidence, not a spurious network accusation.
        if src in allowed_nodes or dst in allowed_nodes:
            return True
        for spec in link_specs:
            if "pairs" in spec:
                if sorted((src, dst)) in spec["pairs"]:
                    return True
            elif fnmatchcase(src, spec["src"]) and fnmatchcase(dst, spec["dst"]):
                return True
        return False

    false_blame = sorted(
        [f"node:{c}" for c in (omission | tamper) - allowed_nodes]
        + [f"client:{c}" for c in clients - allowed_clients]
        + [f"link:{c}" for c in links if not link_allowed(c)]
    )
    localized = sorted(
        describe_ground(g) for g in ground_truths
        if g.get("required", False) and describe_ground(g) not in missed
    )
    return {"localized": localized, "missed": sorted(missed),
            "false_blame": false_blame}


def localization(run: dict) -> dict:
    """Score one campaign run record that carries its :class:`AuditPlane`.

    Returns a JSON-serialisable verdict: the auditor's verdicts against
    the run's injected ground truth (:func:`score_blame`).
    """
    plane = run["plane"]
    ground_truths = [
        inj["ground_truth"] for inj in run["injections"]
        if inj.get("ground_truth")
    ]
    score = score_blame(plane.verdicts, ground_truths)
    required = [g for g in ground_truths if g.get("required", False)]
    return {
        "scenario": run["scenario"],
        "seed": run["seed"],
        "shards": run["shards"],
        "batching": run["batching"],
        "triggered": bool(plane.events),
        "expected": sorted(describe_ground(g) for g in required),
        "verdicts": [v.as_dict() for v in plane.verdicts],
        "localized": score["localized"],
        "missed": score["missed"],
        "false_blame": score["false_blame"],
        "ledger_entries": sum(
            len(ledger.entries) for ledger in plane.ledgers.values()
        ),
        "checkpoints": sum(
            len(ledger.checkpoints) for ledger in plane.ledgers.values()
        ),
        "invariants_ok": run["ok"],
        "ok": not score["missed"] and not score["false_blame"],
    }


def run_localization(
    name: str, seed: int, shards: int = 1, batching=None,
) -> dict:
    """One scenario × seed × deployment cell with the audit plane.

    The verdict of :func:`localization` plus the live
    :class:`AuditPlane` under ``plane`` (for evidence dumps), a key to
    pop before dumping.
    """
    run = run_scenario(
        get_scenario(name), seed, plane=AuditPlane(), batching=batching,
        shards=shards,
    )
    return {**localization(run), "plane": run["plane"]}


def blame_report(campaign: dict) -> dict:
    """Score every run of a ``run_campaign(..., plane=AuditPlane)``."""
    runs = [localization(run) for run in campaign["runs"]]
    failed = [
        {key: r[key] for key in ("scenario", "seed", "shards", "batching")}
        for r in runs if not r["ok"]
    ]
    attributable = sum(len(r["expected"]) for r in runs)
    localized = sum(len(r["localized"]) for r in runs)
    false_blame = sum(len(r["false_blame"]) for r in runs)
    return {
        "runs": runs,
        "summary": {
            "total": len(runs),
            "attributable": attributable,
            "localized": localized,
            "false_blame": false_blame,
            "failed": failed,
            "ok": localized == attributable and not false_blame,
        },
    }


def _cell(items: list[str], width: int) -> str:
    text = ",".join(items) if items else "-"
    if len(text) > width:
        text = text[: width - 1] + "+"
    return f"{text:<{width}}"


def render_table(report: dict) -> str:
    """Fixed-width blame-localization table (tracked results format)."""
    lines = [
        "Audit blame localization (chaos catalogue × deployment matrix)",
        "=" * 62,
        f"{'scenario':<28} {'seed':>4} {'sh':>2} {'batch':<8} "
        f"{'expected':<34} {'blamed':<34} verdict",
        "-" * 124,
    ]
    for run in report["runs"]:
        if run["false_blame"]:
            verdict = "FALSE-BLAME"
        elif run["missed"]:
            verdict = "MISSED"
        elif run["expected"]:
            verdict = "LOCALIZED"
        else:
            verdict = "QUIET"
        blamed = sorted(
            f"{v['kind']}:{'+'.join(v['culprits'])}" for v in run["verdicts"]
            if v["kind"] != "link_omission"
        )
        lines.append(
            f"{run['scenario']:<28} {run['seed']:>4} {run['shards']:>2} "
            f"{run['batching']:<8} {_cell(run['expected'], 34)} "
            f"{_cell(blamed, 34)} {verdict}"
        )
    summary = report["summary"]
    lines.append("-" * 124)
    lines.append(
        f"{summary['localized']}/{summary['attributable']} attributable "
        f"faults localized, {summary['false_blame']} wrongly blamed"
        + ("" if not summary["failed"] else f", failed: {summary['failed']}")
    )
    lines.append(
        "link-level suspicion (partitions, lossy links) is hedged to "
        "links, never to nodes; equivocation"
    )
    lines.append(
        "is structurally prevented by the trusted counters and covered "
        "by unit/property tests instead."
    )
    return "\n".join(lines)
