"""CLI: measure health-plane detection latency over chaos scenarios.

Usage::

    python -m repro.obs.health                               # full catalogue
    python -m repro.obs.health --scenarios healthy_control --seeds 3
    python -m repro.obs.health --out health-report

Every run is fully deterministic: the same arguments produce the same
table, the same ``health.json`` files, and byte-identical forensic
bundles — the CI health job runs the command twice and diffs the output
directories. With ``--out`` the table lands there as ``detection.txt``;
the tracked ``benchmarks/results/health_detection.txt`` is written by
``python -m repro.bench health``. Exit status is non-zero when a
catalogued fault scenario goes undiagnosed or a fault-free scenario
raises any health event (false positive).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ...faults.campaign import resolve_scenarios
from .harness import EXPECTED, render_table, run_harness
from .plane import write_health_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.health",
        description="Run chaos scenarios with the online health plane "
        "attached and report sim-time detection latency per scenario.",
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
        "--out", metavar="DIR",
        help="write per-run health.json + forensic bundles and the "
        "detection-latency table (detection.txt) under DIR",
    )
    args = parser.parse_args(argv)

    try:
        names = resolve_scenarios(args.scenarios)
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    names = [name for name in names if name in EXPECTED]
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    report = run_harness(
        names, seeds=list(range(1, args.seeds + 1)), window=args.window
    )

    if args.out:
        out = Path(args.out)
        for run in report["runs"]:
            plane = run["plane"]
            write_health_report(
                out / f"{run['scenario']}-seed{run['seed']}", plane
            )
    for run in report["runs"]:
        run.pop("plane")
    table = render_table(report)
    if args.out:
        (out / "detection.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        (out / "detection.txt").write_text(table + "\n")
    print(table)

    summary = report["summary"]
    return 0 if not summary["missed"] and not summary["false_positives"] else 1


if __name__ == "__main__":
    sys.exit(main())
