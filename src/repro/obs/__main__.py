"""CLI: run an instrumented workload and dump an observability report.

Usage::

    python -m repro.obs --out obs-report                 # default workload
    python -m repro.obs --system etroxy --seed 7 --out d # pick seed/system
    python -m repro.obs --formats prometheus,chrome ...  # subset of formats

The workload is a small closed-loop read-mostly mix against a simulated
cluster; every phase of every request is recorded as sim-time spans and
registry metrics, then exported deterministically. Running the command
twice with the same arguments produces byte-identical files — CI diffs
two runs to enforce exactly that.
"""

from __future__ import annotations

import argparse
import random
import sys

from ..bench.experiments import _run_system, mixed_source
from .export import REPORT_FILES, write_report
from .probes import ObsPlane


def run_workload(
    system: str = "etroxy",
    seed: int = 42,
    n_clients: int = 4,
    warmup: float = 0.05,
    duration: float = 0.25,
    write_ratio: float = 0.1,
    batching=None,
    plane: ObsPlane = None,
) -> tuple[ObsPlane, object]:
    """Drive one instrumented run; returns (finalized plane, Summary).

    A read-mostly contended mix exercises every span type: cold reads
    order (order/execute/vote), warm reads hit the fast-read cache, and
    the occasional write invalidates entries. ``batching`` takes a
    :class:`repro.hybster.config.BatchConfig` (or the string presets
    accepted by the builders) so critical-path attribution can watch
    the batch-queue phase appear; ``plane`` substitutes another plane
    (e.g. a :class:`~repro.obs.health.HealthPlane`)."""
    plane = plane if plane is not None else ObsPlane()
    source = mixed_source(write_ratio, random.Random(seed), key_space=4)
    _, summary = _run_system(
        system, source, reply_size=256, n_clients=n_clients,
        warmup=warmup, duration=duration, seed=seed, obs=plane,
        batching=batching,
    )
    plane.finalize()
    return plane, summary


def render_summary(plane: ObsPlane, summary) -> str:
    """Deterministic terminal summary of one instrumented run."""
    reg = plane.registry
    traces = plane.spans.trace_ids()
    lines = [
        f"requests completed: {summary.count}",
        f"throughput: {summary.throughput:.1f} req/s  "
        f"mean latency: {summary.mean_latency * 1e3:.3f} ms",
        f"spans: {len(plane.spans)}  traces: {len(traces)}",
        f"ecall transitions: {reg.total('ecall_transitions_total')}",
        f"fast reads: hit={reg.total('fast_read_results_total', outcome='hit')} "
        f"conflict={reg.total('fast_read_results_total', outcome='conflict')} "
        f"timeout={reg.total('fast_read_results_total', outcome='timeout')}",
        f"cache lookups: miss={reg.total('cache_lookups_total', outcome='miss')} "
        f"probe={reg.total('cache_lookups_total', outcome='probe')}",
        f"mode switches: {reg.total('monitor_mode_switches_total')}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run an instrumented workload and export deterministic "
        "metrics/span reports (Prometheus text, JSONL, Chrome trace).",
    )
    parser.add_argument("--system", default="etroxy",
                        choices=("bl", "ctroxy", "etroxy"),
                        help="deployment to instrument (default: etroxy)")
    parser.add_argument("--seed", type=int, default=42,
                        help="simulation seed (default: 42)")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop clients (default: 4)")
    parser.add_argument("--warmup", type=float, default=0.05,
                        help="simulated warm-up seconds (default: 0.05)")
    parser.add_argument("--duration", type=float, default=0.25,
                        help="simulated measurement seconds (default: 0.25)")
    parser.add_argument("--write-ratio", type=float, default=0.1,
                        help="fraction of writes in the mix (default: 0.1)")
    parser.add_argument("--out", default="obs-report", metavar="DIR",
                        help="directory for export files (default: obs-report)")
    parser.add_argument("--formats", default="prometheus,jsonl,chrome",
                        help="comma-separated subset of: "
                        + ",".join(sorted(REPORT_FILES)))
    args = parser.parse_args(argv)

    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    for fmt in formats:
        if fmt not in REPORT_FILES:
            parser.error(f"unknown format {fmt!r}; choose from {sorted(REPORT_FILES)}")

    plane, summary = run_workload(
        system=args.system, seed=args.seed, n_clients=args.clients,
        warmup=args.warmup, duration=args.duration,
        write_ratio=args.write_ratio,
    )
    written = write_report(args.out, plane.registry, plane.spans.spans, formats)

    print(render_summary(plane, summary))
    for fmt in formats:
        print(f"{fmt}: {written[fmt]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
