"""Command-line runner for the paper experiments.

Usage::

    python -m repro.bench fig6            # one experiment
    python -m repro.bench fig7 fig9       # several
    python -m repro.bench all             # everything (slow)

Prints the paper-style series and writes them to benchmarks/results/:
every tracked table there has its one producer in :data:`RUNNERS`,
which carries the table's canonical arguments, and ``tests/paper``
asserts the paper's shapes on what it wrote.
To profile an experiment, run it under cProfile:
``python -m cProfile -s cumtime -m repro.bench fig6``.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..analysis.linearizability import check_linearizable
from ..faults.campaign import run_campaign
from ..faults.schedule import scenario_names
from ..obs.audit import AuditPlane, harness as audit_harness
from ..obs.health import HealthPlane, harness as health_harness
from . import critpath, experiments
from .report import format_latency_series, format_throughput_series, save_and_print


def run_fig5():
    rows, leader_trace, audit = experiments.fig5_message_flow()
    lines = ["Fig. 5 — single ordered write, unloaded LAN", "=" * 44]
    for name, latency, messages in rows:
        lines.append(f"{name:34s} latency {latency * 1e6:9.1f} us   protocol msgs {messages:3d}")
    lines.append("")
    lines.append("leader-side protocol sends (Troxy at leader):")
    for record in leader_trace[:12]:
        lines.append("  " + str(record))

    troxy_latency = rows[1][1]
    probed_latency, ledger_entries, checkpoints = audit
    overhead = (probed_latency - troxy_latency) / troxy_latency
    lines.append("")
    lines.append("audit-ledger probe overhead (troxy at leader, checkpoint interval 64):")
    lines.append(
        f"  ledgers off {troxy_latency * 1e6:9.1f} us   "
        f"ledgers on {probed_latency * 1e6:9.1f} us   "
        f"delta {overhead * 100:+.2f}%"
    )
    lines.append(
        f"  {ledger_entries} ledger entries, {checkpoints} certify_ledger "
        "ecall(s) across the run"
    )
    save_and_print("fig5", "\n".join(lines))


def run_fig6():
    points = experiments.fig6_ordered_writes_local()
    save_and_print("fig6", format_throughput_series(
        "Fig. 6 — ordered writes, LAN (throughput vs request size)", points))


def run_fig7():
    points = experiments.fig7_ordered_writes_wan()
    save_and_print("fig7", format_throughput_series(
        "Fig. 7 — ordered writes, 100±20 ms WAN (throughput vs request size)", points))


def run_fig8():
    points = experiments.fig8_reads_local()
    save_and_print("fig8", format_throughput_series(
        "Fig. 8 — read-only workload, LAN (throughput vs reply size)", points))


def run_fig9():
    points = experiments.fig9_reads_wan()
    save_and_print("fig9", format_throughput_series(
        "Fig. 9 — read-only workload, 100±20 ms WAN (throughput vs reply size)", points))


def run_leases():
    points = experiments.lease_reads()
    title = "Leased vs voted reads — fig8/fig9 read-only workload, 1 KB replies"
    header = (
        f"{'network':<12} {'system':<8} {'p50':>11} {'p95':>11} "
        f"{'throughput':>12} {'lease hits':>11}"
    )
    save_and_print(
        "leases",
        "\n".join(
            [title, "=" * len(title), header, "-" * len(header)]
            + [
                f"{p.figure:<12} {p.system:<8} "
                f"{p.summary.p50 * 1e3:8.3f} ms {p.summary.p95 * 1e3:8.3f} ms "
                f"{p.throughput:7.0f} op/s {p.extra['lease_read_hits']:>11}"
                for p in points
            ]
        ),
    )


def run_fig10():
    points = experiments.fig10_write_contention()
    lines = ["Fig. 10 — 1 % writes, contended keys", "=" * 40]
    for point in points:
        lines.append(
            f"{point.system:18s} {point.throughput:>10.0f} op/s   "
            f"read conflicts {point.extra['conflict_rate'] * 100:5.1f}%"
        )
    save_and_print("fig10", "\n".join(lines))


def run_fig11():
    points = experiments.fig11_http_latency()
    save_and_print("fig11", format_latency_series(
        "Fig. 11 — HTTP service mean latency (GET/POST mix, ~500 req/s)", points))


def run_batching():
    points = experiments.batching_throughput()
    writes = [p for p in points if p.figure == "batching-writes"]
    reads = [p for p in points if p.figure == "batching-reads"]
    lines = ["Batching — fig6 local writes, 32 clients (etroxy)", "=" * 56]
    lines.append(
        f"{'setting':>9} | {'op/s':>7} | {'p50 ms':>7} | {'avg batch':>9} | "
        f"{'depth':>5} | flushes size/idle/timeout"
    )
    by_setting = {}
    for point in writes:
        fr = point.extra["flush_reasons"]
        by_setting[point.x] = point.throughput
        lines.append(
            f"{point.x:>9} | {point.throughput:>7.0f} | "
            f"{point.summary.p50 * 1000:>7.3f} | {point.extra['avg_batch']:>9.2f} | "
            f"{point.extra['max_pipeline_depth']:>5} | "
            f"{fr['size']}/{fr['idle']}/{fr['timeout']}"
        )
    lines.append(
        f"adaptive vs unbatched ('off'): "
        f"{by_setting['adaptive'] / by_setting['off']:5.2f}x"
    )
    lines.append("")
    lines.append("fig8-style fast-read guard (p50 must not move):")
    for point in reads:
        lines.append(
            f"  b={point.x:>8}: p50 {point.summary.p50 * 1000:7.3f} ms  "
            f"({point.throughput:.0f} op/s)"
        )
    save_and_print("batching", "\n".join(lines))


def run_sharding():
    points = experiments.sharding_throughput()
    writes = [p for p in points if p.figure == "sharding-writes"]
    lines = ["Sharding — fig6 local writes, 96 clients, uniform keys (etroxy)",
             "=" * 64]
    lines.append(
        f"{'shards':>7} | {'op/s':>8} | {'p50 ms':>7} | {'speedup':>7} | "
        f"{'fwd share':>9} | ring split"
    )
    base = writes[0].throughput if writes else 0.0
    for point in writes:
        split = point.extra.get("ring_split", {})
        split_s = "/".join(str(split[g]) for g in sorted(split))
        lines.append(
            f"{point.x:>7} | {point.throughput:>8.0f} | "
            f"{point.summary.p50 * 1000:>7.3f} | "
            f"{point.throughput / base if base else 0.0:>6.2f}x | "
            f"{point.extra.get('forward_share', 0.0):>8.0%} | {split_s}"
        )
    lines.append("")
    lines.append("(fwd share counts router lookups, so a request forwarded once")
    lines.append(" is looked up twice: share f/(1+f) for true forward fraction f)")
    lines.extend(critpath.sharding_gap_notes())
    save_and_print("sharding", "\n".join(lines))


def run_critpath():
    """Critical-path attribution sidecars (benchmarks/results/critpath_*.txt)."""
    for name, producer in critpath.SIDECARS.items():
        save_and_print(name, producer())


def run_ablations():
    """The design ablations (benchmarks/results/ablation_*.txt)."""
    lines = ["Ablation D5 — enclave boundary cost (256 B ordered writes)", "=" * 58]
    for name, (tput, ecalls) in experiments.ablation_sgx_boundary().items():
        lines.append(f"{name:24s} {tput:>10.0f} op/s   ecalls/request {ecalls:5.1f}")
    save_and_print("ablation_sgx", "\n".join(lines))

    lines = [
        "Ablation — cache placement vs a 1 MB EPC (8 KB replies, 512 hot keys)",
        "=" * 68,
    ]
    for name, (tput, pages, resident) in experiments.ablation_epc_placement().items():
        lines.append(
            f"{name:24s} {tput:>10.0f} op/s   pages swapped {pages:>8d}   "
            f"enclave-resident {resident / 1024:.0f} KiB"
        )
    save_and_print("ablation_epc", "\n".join(lines))

    broken, intact, _, _ = experiments.ablation_invalidation()
    lines = ["Ablation D2 — write invalidation removed", "=" * 42]
    lines.append(f"with invalidation   : final read = "
                 f"{intact[-1].value!r}, linearizable = {check_linearizable(intact)}")
    lines.append(f"without invalidation: final read = "
                 f"{broken[-1].value!r}, linearizable = {check_linearizable(broken)}")
    save_and_print("ablation_invalidation", "\n".join(lines))

    lines = [
        "Ablation D1 — client-side footprint per read (4 KB replies, WAN)",
        "=" * 64,
    ]
    for system, (rx, tx, latency) in experiments.ablation_voter().items():
        lines.append(
            f"{system:8s} client downloads {rx:>8.0f} B/req, uploads {tx:>6.0f} B/req, "
            f"latency {latency * 1000:7.1f} ms"
        )
    save_and_print("ablation_voter", "\n".join(lines))


def run_health():
    # The whole catalogue x seeds 1-3: the tracked 54 rows.
    campaign = run_campaign(scenario_names(), [1, 2, 3], plane=HealthPlane)
    report = health_harness.detection_report(campaign)
    save_and_print("health_detection", health_harness.render_table(report))


def run_audit():
    # The whole catalogue x seed 1 x shards (1, 2) x batching (off, adaptive):
    # the tracked 72 rows.
    campaign = run_campaign(
        scenario_names(), [1], shards=[1, 2], batching=[None, "adaptive"],
        plane=AuditPlane,
    )
    report = audit_harness.blame_report(campaign)
    save_and_print("audit_blame", audit_harness.render_table(report))


def run_cpu_account():
    """Where the simulated CPU goes (benchmarks/results/cpu_account.txt)."""
    lines = [
        "Simulated-CPU account of the perf-ledger traffic shapes",
        "(python -m repro.bench cpu_account; etroxy, seed 1, the ledger's --seconds 10 "
        "windows; simulated clock, repeats exactly)",
    ]
    for point in experiments.cpu_account():
        roles, summary = point.extra["roles"], point.summary
        lines += [
            "",
            f"{point.x}: {summary.throughput:.0f} op/s, {summary.count} ops in a "
            f"{summary.duration * 1e3:.2f} ms window, {roles['replicas'][0]} replica nodes "
            f"x {experiments.REPLICA_CORES} cores",
            f"  {'role':<10} {'nodes':>5} {'busiest core':>12} {'busy us/op':>10} "
            f"{'per_call us/op':>14} {'share':>6} {'wait us/acq':>11}",
        ]
        lines += [
            f"  {role:<10} {nodes:>5} {row['busiest']:>12.3f} {row['busy_us']:>10.2f} "
            f"{row['per_call_us']:>14.2f} {row['per_call_share']:>6.2f} {row['wait_us']:>11.2f}"
            for role, (nodes, row) in roles.items()
        ]
        for role in ("leaders", "followers"):
            sites = roles[role][1]["sites"]  # the top 12, the rest summed
            lines.append(f"  {role}, busy us/op by call site:")
            lines += [f"    {micros:>8.2f}  {site}" for micros, site in sites[:12]]
            if sites[12:]:
                rest = sum(micros for micros, _site in sites[12:])
                lines.append(f"    {rest:>8.2f}  other ({len(sites) - 12} sites)")
    save_and_print("cpu_account", "\n".join(lines))


def run_table1():
    rows = experiments.table1_rows()
    lines = ["Table I — read optimizations and consistency", "=" * 46]
    lines.append(f"{'System':>10} | {'Replicas':>8} | {'Read quorum':>22} | Consistency")
    for row in rows:
        lines.append(
            f"{row.system:>10} | {row.replicas:>8} | {row.read_quorum:>22} | {row.consistency}"
        )
    lines.append("(consistency witnesses: run `pytest tests/paper/test_table1.py`)")
    save_and_print("table1", "\n".join(lines))


RUNNERS = {
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "table1": run_table1,
    "batching": run_batching,
    "sharding": run_sharding,
    "critpath": run_critpath,
    "ablations": run_ablations,
    "leases": run_leases,
    "health": run_health,
    "audit": run_audit,
    "cpu_account": run_cpu_account,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        choices=sorted(RUNNERS) + ["all"],
        help="which experiments to run ('all' for every one)",
    )
    args = parser.parse_args(argv)
    names = sorted(RUNNERS) if "all" in args.experiments else args.experiments
    for name in names:
        started = time.time()
        RUNNERS[name]()
        print(f"[{name} finished in {time.time() - started:.0f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
