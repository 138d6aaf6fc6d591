#!/usr/bin/env python3
"""Where the simulated CPU goes: a per-node account of the ledger workloads.

Critical-path attribution says *when* a request waited for a core; this
says what the core was doing instead. Every simulated CPU charge goes
through ``Node.compute``. For the length of one run this script
wraps that method (nothing in ``src/`` knows it is measured) and books
each charge to its node and to the call site that made it; a boundary
crossing is booked under its ecall name. The
workloads are the perf ledger's own (``benchmarks/ledger/spec.py``,
built by ``onepass._Pass``), at the benchmark driver's scale.

Per workload, for all replica nodes and then per role (the groups'
leaders, their followers):

- *busiest core*: busy share of the window on the role's busiest node
  (busy seconds / window / cores);
- *busy us/op*: CPU seconds charged in the window per operation
  completed in it, in total and by call site;
- *per_call*: the part of that which is the crossings' fixed cost
  (``BoundaryCosts.per_call`` of each enclave), and its share;
- *wait us/acq*: mean time a charge queued for a core before it ran.

The wrappers schedule nothing, so the run is the one the ledger
measures: the printed throughput equals ``sim_throughput_ops`` of
``run.py --seconds 10`` for the same seed. The output repeats byte for
byte and is tracked in ``benchmarks/results/cpu_account.txt``.

    python benchmarks/perf/cpu_account.py            # rewrites the tracked file
    python benchmarks/perf/cpu_account.py --workload writes_sharded --out -
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "ledger")]

import onepass  # noqa: E402
import spec  # noqa: E402
from repro.sim.network import Node  # noqa: E402

TRACKED = ROOT / "benchmarks" / "results" / "cpu_account.txt"
#: The tracked table's run: the driver's scale (``run.py --seconds 10``).
SEED = 1
SCALE = spec.RUN_SECONDS / spec.FULL_SCALE_SECONDS
#: Call sites printed per role; the rest is summed as "other".
TOP_SITES = 12


class CpuAccount:
    """Busy and wait seconds per (node, call site) inside one window."""

    def __init__(self):
        self.window = (float("inf"), float("inf"))
        self.busy = defaultdict(float)  # (node, site) -> seconds
        self.per_call = defaultdict(float)  # node -> seconds
        self.wait = defaultdict(float)  # node -> seconds
        self.acquisitions = defaultdict(int)  # node -> count

    def _booked(self, node: Node, seconds: float, inner):
        start = node.env.now
        yield from inner
        if not self.window[0] <= start < self.window[1]:
            return
        # The caller's caller: ``_booked`` runs under the wrapper's
        # ``yield from``, whose frame is the charging function's.
        frame = sys._getframe(1)
        code = frame.f_code
        site = f"{Path(code.co_filename).stem}.{code.co_name}"
        if site == "enclave.ecall":
            enclave = frame.f_locals["self"]
            site = f"ecall {frame.f_locals['name']}"
            self.per_call[node.name] += enclave.costs.per_call
        self.busy[node.name, site] += seconds
        self.wait[node.name] += node.env.now - start - seconds
        self.acquisitions[node.name] += 1

    @contextmanager
    def installed(self):
        """Wrap ``Node.compute`` for the block."""
        compute = Node.compute

        def booked_compute(node, seconds):
            inner = compute(node, seconds)
            return self._booked(node, seconds, inner) if seconds > 0 else inner

        Node.compute = booked_compute
        try:
            yield self
        finally:
            Node.compute = compute


def measure(workload, seed: int, scale: float):
    """One ledger window with the account installed."""
    account = CpuAccount()
    with account.installed():
        run = onepass._Pass(workload, seed, traced=False)
        start = run.env.now + workload.warmup * scale
        end = start + workload.window * scale
        account.window = (start, end)
        run.loadgen.start()
        run.env.run(until=end)
    summary = run.loadgen.collector.summarize(start, end)
    return account, run.cluster, summary


def role_rows(account, nodes, cores: int, summary) -> dict:
    """The account of one set of nodes, per completed operation."""
    ops, window = summary.count, summary.duration
    sites = defaultdict(float)
    node_busy = defaultdict(float)
    for (node, site), seconds in account.busy.items():
        if node in nodes:
            sites[site] += seconds
            node_busy[node] += seconds
    busy = sum(node_busy.values())
    acquisitions = sum(account.acquisitions[n] for n in nodes)
    per_call = sum(account.per_call[n] for n in nodes)
    return {
        "busiest": max(node_busy.values(), default=0.0) / window / cores,
        "busy_us": busy / ops * 1e6,
        "per_call_us": per_call / ops * 1e6,
        "per_call_share": per_call / busy if busy else 0.0,
        "wait_us": (
            sum(account.wait[n] for n in nodes) / acquisitions * 1e6
            if acquisitions else 0.0
        ),
        "sites": sorted(
            ((seconds / ops * 1e6, site) for site, seconds in sites.items()),
            key=lambda row: (-row[0], row[1]),
        ),
    }


def roles(cluster) -> tuple:
    """(name, node names) of all replicas, the group leaders, the rest."""
    leaders = {group.leader.node.name for group in cluster.groups}
    replicas = {replica.node.name for replica in cluster.replicas}
    return ("replicas", replicas), ("leaders", leaders), ("followers", replicas - leaders)


def render(workload) -> list:
    account, cluster, summary = measure(workload, SEED, SCALE)
    cores = cluster.replicas[0].node.cpu.capacity
    by_role = roles(cluster)
    lines = [
        f"{workload.name}: {summary.throughput:.0f} op/s, {summary.count} ops in a "
        f"{summary.duration * 1e3:.2f} ms window, {len(cluster.replicas)} replica nodes "
        f"x {cores} cores",
        f"  {'role':<10} {'nodes':>5} {'busiest core':>12} {'busy us/op':>10} "
        f"{'per_call us/op':>14} {'share':>6} {'wait us/acq':>11}",
    ]
    accounts = {
        name: role_rows(account, nodes, cores, summary) for name, nodes in by_role
    }
    for name, nodes in by_role:
        row = accounts[name]
        lines.append(
            f"  {name:<10} {len(nodes):>5} {row['busiest']:>12.3f} "
            f"{row['busy_us']:>10.2f} {row['per_call_us']:>14.2f} "
            f"{row['per_call_share']:>6.2f} {row['wait_us']:>11.2f}"
        )
    for name in ("leaders", "followers"):
        sites = accounts[name]["sites"]
        lines.append(f"  {name}, busy us/op by call site:")
        for micros, site in sites[:TOP_SITES]:
            lines.append(f"    {micros:>8.2f}  {site}")
        rest = sum(micros for micros, _site in sites[TOP_SITES:])
        if rest:
            lines.append(f"    {rest:>8.2f}  other ({len(sites) - TOP_SITES} sites)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(spec.WORKLOAD_BY_NAME),
                        help="default: all four ledger workloads")
    parser.add_argument("--out", default=str(TRACKED),
                        help="file to write; '-' prints only (default: the tracked table)")
    args = parser.parse_args(argv)
    names = args.workload or [w.name for w in spec.WORKLOADS]
    lines = [
        "Simulated-CPU account of the perf-ledger workloads",
        f"(python benchmarks/perf/cpu_account.py; seed {SEED}, "
        f"--seconds {spec.RUN_SECONDS:g}; simulated clock, repeats exactly)",
    ]
    for name in names:
        lines.append("")
        lines += render(spec.WORKLOAD_BY_NAME[name])
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out != "-":
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
