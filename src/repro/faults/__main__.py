"""CLI for deterministic chaos campaigns.

Usage::

    python -m repro.faults --scenarios all --seeds 0,1 --out out
    python -m repro.faults --scenarios troxy_crash_failover,host_tamper_replies
    python -m repro.faults --batch off,adaptive --shards 1,2  # deployment matrix
    python -m repro.faults --plane health --seeds 1,2,3 --out health
    python -m repro.faults --plane audit --shards 1,2 --batch off,adaptive
    python -m repro.faults --list

One sweep over shards × batching × scenarios × seeds. ``--plane`` runs
every cell under the health plane (scored for detection latency) or the
audit plane (scored for blame localization). With ``--out DIR`` the
campaign report lands in ``DIR/campaign.json``; under a plane each run
also writes its reports to ``DIR/<scenario>-seed<s>-sh<n>-b<batch>/``
and the scored table to ``DIR/detection.txt`` or ``DIR/blame.txt``
(plus ``.json``). Same arguments -> byte-identical files.

Exit status is non-zero when any run violates an invariant, or, under a
plane, when a fault goes undiagnosed or unlocalized, a quiet run pages,
or anything healthy is blamed — so the command slots straight into CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .campaign import render_text, report_to_json, resolve_scenarios, run_campaign
from .schedule import SCENARIOS


#: Per-run report directory under ``--out`` when a plane observes.
CELL = "{scenario}-seed{seed}-sh{shards}-b{batching}"


def _planes() -> dict:
    """--plane name -> (factory, scorer, table renderer, table stem, run writer)."""
    from ..obs.audit import AuditPlane, harness as audit, write_audit_report
    from ..obs.health import HealthPlane, harness as health, write_health_report

    def write_audit(out, run):
        meta = {key: run[key] for key in ("scenario", "seed", "shards", "batching")}
        write_audit_report(out, run["plane"], meta=meta)

    return {
        "health": (
            HealthPlane, health.detection_report, health.render_table,
            "detection", lambda out, run: write_health_report(out, run["plane"]),
        ),
        "audit": (
            AuditPlane, audit.blame_report, audit.render_table, "blame",
            write_audit,
        ),
    }


def _score(plane, report: dict, out) -> bool:
    """Score the observed runs, print (and write) the table, drop the planes."""
    _factory, score, render_table, stem, write_run = plane
    scored = score(report)
    for run in report["runs"]:
        if out:
            write_run(out / CELL.format(**run), run)
        run.pop("plane")
    table = render_table(scored)
    print(table)
    if out:
        (out / f"{stem}.json").write_text(
            json.dumps(scored, indent=2, sort_keys=True) + "\n"
        )
        (out / f"{stem}.txt").write_text(table + "\n")
    return scored["summary"]["ok"]


def _tokens(spec: str) -> list[str]:
    return [token.strip() for token in spec.split(",") if token.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run fault-injection scenarios against a simulated "
        "Troxy cluster and check linearizability, liveness and counter "
        "monotonicity.",
    )
    parser.add_argument(
        "--scenarios",
        default="all",
        help="comma-separated scenario names, or 'all' (default)",
    )
    parser.add_argument(
        "--seeds",
        default="0,1,2,3,4",
        metavar="LIST",
        help="comma-separated seeds to run each scenario at "
        "(default: 0,1,2,3,4)",
    )
    parser.add_argument(
        "--batch",
        default="off",
        metavar="LIST",
        help="comma-separated agreement-batching settings to sweep: 'off' "
        "and/or 'adaptive' (default: off)",
    )
    parser.add_argument(
        "--shards",
        default="1",
        metavar="LIST",
        help="comma-separated agreement-group counts to sweep (default: "
        "1, the historical single-group deployment); migration "
        "scenarios always get at least their declared minimum",
    )
    parser.add_argument(
        "--plane",
        choices=("health", "audit"),
        help="observe every run with the health plane (detection "
        "latency) or the audit plane (blame localization)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="write campaign.json, and under --plane the per-run "
        "reports and the scored table, into DIR",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for scenario in SCENARIOS.values():
            print(f"{scenario.name:<28} [{scenario.paper_ref}]")
            print(f"    {scenario.description}")
        return 0

    try:
        names = resolve_scenarios(args.scenarios)
        seeds = [int(token) for token in _tokens(args.seeds)]
        shards = [int(token) for token in _tokens(args.shards)]
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    except ValueError as exc:
        parser.error(str(exc))
    if not seeds:
        parser.error("--seeds needs at least one seed")
    if not shards or min(shards) < 1:
        parser.error("--shards needs group counts of at least 1")
    batching = _tokens(args.batch) or ["off"]
    if not set(batching) <= {"off", "adaptive"}:
        parser.error("--batch takes 'off' and/or 'adaptive'")

    plane = _planes()[args.plane] if args.plane else None
    report = run_campaign(
        names, seeds, shards=shards, batching=batching,
        plane=plane[0] if plane else None,
    )
    print(render_text(report))
    failed = bool(report["summary"]["failed"])
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    if plane:
        failed |= not _score(plane, report, out)
    if out:
        (out / "campaign.json").write_text(report_to_json(report))
        print(f"report written to {out / 'campaign.json'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
