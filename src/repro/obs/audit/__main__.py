"""CLI: score audit-plane blame localization over chaos scenarios.

Usage::

    python -m repro.obs.audit                                # full catalogue
    python -m repro.obs.audit --scenarios host_tamper_replies --out audit-run
    python -m repro.obs.audit --shards 1,2 --batch off,4

Every run is fully deterministic: the same arguments produce the same
table, the same ``audit.json`` files, and byte-identical signed
evidence bundles — the CI audit-smoke step runs one tampering cell
twice and diffs the output directories. With ``--out`` the table lands
there as ``blame.txt``; the tracked ``benchmarks/results/audit_blame.txt``
is written by ``python -m repro.bench audit``. Exit status is non-zero
when an attributable fault goes unlocalized or any healthy replica,
client, or link is wrongly blamed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ...faults.campaign import resolve_scenarios
from .harness import render_table, run_harness
from .plane import write_audit_report


def _tokens(spec: str) -> list[str]:
    return [token.strip() for token in spec.split(",") if token.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.audit",
        description="Run chaos scenarios with the audit plane attached and "
        "score blame localization against the injected ground truth.",
    )
    parser.add_argument(
        "--scenarios", default="all",
        help="comma-separated scenario names, or 'all' (default)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="run each scenario at seeds 1..N (default: 1)",
    )
    parser.add_argument(
        "--window", type=float, default=0.25,
        help="health-evaluation window in sim seconds (default: 0.25)",
    )
    parser.add_argument(
        "--shards", default="1", metavar="LIST",
        help="comma-separated shard counts to sweep (default: 1)",
    )
    parser.add_argument(
        "--batch", default="off", metavar="LIST",
        help="comma-separated batching settings to sweep: off, a batch "
        "size, or adaptive (default: off)",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="write per-run audit.json + signed evidence bundles and the "
        "blame-localization table (blame.txt) under DIR",
    )
    args = parser.parse_args(argv)

    try:
        names = resolve_scenarios(args.scenarios)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    report = run_harness(
        names,
        seeds=list(range(1, args.seeds + 1)),
        window=args.window,
        shards_matrix=[int(t) for t in _tokens(args.shards)] or [1],
        batching_matrix=[
            None if t in ("off", "none", "1") else t for t in _tokens(args.batch)
        ] or [None],
    )

    if args.out:
        out = Path(args.out)
        for run in report["runs"]:
            plane = run["plane"]
            cell = (
                f"{run['scenario']}-seed{run['seed']}"
                f"-sh{run['shards']}-b{run['batching']}"
            )
            write_audit_report(
                out / cell, plane,
                meta={
                    "scenario": run["scenario"], "seed": run["seed"],
                    "shards": run["shards"], "batching": run["batching"],
                },
            )
    for run in report["runs"]:
        run.pop("plane")
    table = render_table(report)
    if args.out:
        (out / "blame.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        (out / "blame.txt").write_text(table + "\n")
    print(table)

    summary = report["summary"]
    ok = summary["localized"] == summary["attributable"] and not summary["false_blame"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
