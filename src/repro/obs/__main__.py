"""CLI: run an instrumented workload, export it and attribute its
critical path.

Usage::

    python -m repro.obs --out obs-report                 # default workload
    python -m repro.obs --system etroxy --seed 7 --out d # pick seed/system
    python -m repro.obs --batching adaptive --out d      # batch queue visible
    python -m repro.obs --shards 4 --out d               # sharded write cell

The workload is a small closed-loop read-mostly mix against a simulated
cluster (with ``--shards``, the sharded write cell of the sharding
benchmark instead); every phase of every request is recorded as
sim-time spans and registry counters and gauges, then exported
deterministically to ``metrics.jsonl`` and ``trace.json``.
Every completed request is attributed with :mod:`repro.obs.critpath`:
the bottleneck report is printed after the summary and written to
``critpath.txt`` next to the aggregate profile ``critpath.json``, and
the Chrome trace marks critical-path spans (``args.critical`` /
category ``critical``). Running the command twice with the same
arguments produces byte-identical files — CI diffs two runs to enforce
exactly that.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from ..bench.critpath import attributed_sharded_run
from ..bench.experiments import _run_system, mixed_source
from .critpath import analyze, highlighted_chrome_trace, render_report
from .export import write_report
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
    the occasional write invalidates entries. ``batching`` takes
    ``"off"`` or ``"adaptive"`` (as the builders do) so critical-path
    attribution can watch the batch-queue phase appear; ``plane``
    substitutes another plane (e.g. a
    :class:`~repro.obs.health.HealthPlane`)."""
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


def _label(args) -> str:
    if args.shards:
        return f"sharded writes, {args.shards} groups, seed {args.seed}"
    parts = [args.system, f"seed {args.seed}", f"{args.clients} clients"]
    if args.batching:
        parts.append(f"batching {args.batching}")
    return ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run an instrumented workload and export deterministic "
        "metrics/span reports (JSONL, Chrome trace).",
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
    parser.add_argument("--batching", default=None,
                        choices=("off", "adaptive"),
                        help="agreement batching (default: off)")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="instead of --system, run the N-group sharded "
                        "write cell (forwarding hop visible)")
    parser.add_argument("--out", default="obs-report", metavar="DIR",
                        help="directory for export and critpath files "
                        "(default: obs-report)")
    args = parser.parse_args(argv)

    if args.shards:
        analysis, summary, _cluster, plane = attributed_sharded_run(
            shards=args.shards, seed=args.seed,
            n_clients=max(args.clients, 24),
            warmup=args.warmup, duration=args.duration,
            batching=args.batching,
        )
    else:
        plane, summary = run_workload(
            system=args.system, seed=args.seed, n_clients=args.clients,
            warmup=args.warmup, duration=args.duration,
            write_ratio=args.write_ratio, batching=args.batching,
        )
        analysis = analyze(plane.spans)
    spans = plane.spans.spans
    written = write_report(
        args.out, plane.registry, spans,
        trace=highlighted_chrome_trace(spans, analysis),
    )
    report = render_report(analysis, _label(args))
    out = Path(args.out)
    (out / "critpath.txt").write_text(report + "\n")
    (out / "critpath.json").write_text(
        json.dumps(analysis.as_dict(), indent=1, sort_keys=True) + "\n"
    )
    written["critpath.txt"] = out / "critpath.txt"
    written["critpath.json"] = out / "critpath.json"

    print(render_summary(plane, summary))
    print(report)
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
