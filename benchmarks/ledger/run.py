#!/usr/bin/env python3
"""Perf ledger: the repo's two-clock benchmark (see README.md here).

Three ways to call it::

    # the ledger: all four workloads, 7 interleaved passes + traced run
    python benchmarks/ledger/run.py [--seed 42] [--out result.json]

    # one workload, as the benchmark driver calls it (last line is JSON)
    python benchmarks/ledger/run.py --workload reads_lan --seed 1 \\
        --seconds 10 --trace 0

    # compare two ledger results of the same code
    python benchmarks/ledger/run.py --agree A.json B.json

Simulated-clock metrics and counters repeat exactly per (commit, seed)
and are asserted identical across passes; host-clock metrics come from N
fresh-interpreter passes, read against a frozen reference loop
(refloop.py), and are printed with their per-pass median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from refloop import reference_seconds  # noqa: E402

SRC = HERE.parents[1] / "src"
#: Ambient knobs the repo's builders and CLIs read; a pass never sees them.
SCRUBBED = ("REPRO_BATCHING", "REPRO_LEASES", "REPRO_SHARDS", "REPRO_BENCH_SCALE")
PASS_TIMEOUT_S = 170
COVERAGE_SLACK = 1e-9


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


# -- passes ------------------------------------------------------------------


def run_pass(kind: str, seed: int, workload: str = None, scale: float = 1.0) -> dict:
    """One fresh-interpreter pass with hermetic inputs."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, str(HERE / "onepass.py"), "--kind", kind,
               "--seed", str(seed), "--scale", repr(scale)]
    if workload is not None:
        command += ["--workload", workload]
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchmarkError(f"{kind} pass of {workload} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _differences(a, b, path: str = "") -> list:
    """Paths of the leaves at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            out += _differences(a.get(key), b.get(key), f"{path}/{key}")
        return out
    return [] if a == b else [path]


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- metrics -----------------------------------------------------------------


def _window_seconds(one_pass: dict) -> float:
    """CPU time of one pass's window in reference seconds (refloop.py)."""
    return sum(reference_seconds(cpu, chunk) for cpu, chunk in one_pass["slices"])


def window_seconds(passes: list) -> float:
    """The window's host cost from several passes, in reference seconds.

    Slice i is the same simulated work in every pass, so its cost is the
    median over the passes and the window is the sum of its slices: a
    burst that hits one slice of one pass is voted out, which a
    whole-pass minimum or median cannot do.
    """
    per_slice = zip(*(p["slices"] for p in passes))
    return sum(
        statistics.median(reference_seconds(cpu, chunk) for cpu, chunk in column)
        for column in per_slice
    )


def end_to_end(passes: list) -> dict:
    """The user-visible metrics of one workload from its untraced passes."""
    exact = passes[0]["exact"]
    summary = exact["summary"]
    steps = exact["window"]["sim"]["steps"]
    ops = summary["count"]
    window_s = window_seconds(passes)
    pass_seconds = [_window_seconds(p) for p in passes]
    per_pass = {
        "host_steps_per_s": [steps / s for s in pass_seconds],
        "host_us_per_op": [s * 1e6 / ops for s in pass_seconds],
        "host_peak_rss_mb": [p["rss_mb"] for p in passes],
        "setup_s": [reference_seconds(*p["setup"]) for p in passes],
    }
    values = {
        "sim_throughput_ops": summary["throughput"],
        "sim_latency_p50_ms": summary["p50"] * 1e3,
        "sim_latency_p99_ms": summary["p99"] * 1e3,
        "host_steps_per_s": steps / window_s,
        "host_us_per_op": window_s * 1e6 / ops,
        "host_peak_rss_mb": max(per_pass["host_peak_rss_mb"]),
        "setup_s": statistics.median(per_pass["setup_s"]),
    }
    out = {}
    for metric in spec.END_TO_END:
        out[metric.name] = {"value": values[metric.name], "unit": metric.unit}
        if metric.name in per_pass:
            out[metric.name]["passes"] = per_pass[metric.name]
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(passes: list, profile: dict, obs: dict, engine: dict) -> dict:
    """The traced run's metrics; ``passes`` are the untraced ones."""
    exact = passes[0]["exact"]
    window = exact["window"]
    ops = exact["summary"]["count"]
    untraced_s = window_seconds(passes)
    hybster, troxy, cache = window["hybster"], window["troxy"], window["cache"]
    monitor, sgx, shard = window["monitor"], window["sgx"], window["shard"]
    values = {}

    buckets = profile["profile"]["layers"]
    profiled_s = sum(bucket["self_s"] for bucket in buckets.values())
    for layer in spec.LAYERS:
        values[f"{layer}.host_self_share"] = _ratio(buckets[layer]["self_s"], profiled_s)
        values[f"{layer}.calls_per_op"] = _ratio(buckets[layer]["calls"], ops)
    values["trace.profile_overhead_x"] = _window_seconds(profile) / untraced_s
    named = profile["profile"]["named_calls"]
    values["crypto.mac_ops_per_op"] = _ratio(named["mac"], ops)
    values["crypto.digest_ops_per_op"] = _ratio(named["digest"], ops)
    values["crypto.tls_records_per_op"] = _ratio(named["tls"], ops)

    traced = obs["obs"]
    for name, value in traced["phases"].items():
        values[f"critpath.{name}"] = value
    values["critpath.coverage_min"] = traced["coverage_min"]
    values["obs.host_overhead_x"] = _window_seconds(obs) / untraced_s
    values["obs.spans_per_op"] = _ratio(traced["spans"], ops)
    values["obs.sim_perturbation"] = len(_differences(exact, obs["exact"]))

    steps = window["sim"]["steps"]
    values["sim.steps_per_op"] = _ratio(steps, ops)
    values["sim.scheduled_events_per_op"] = _ratio(window["sim"]["scheduled_events"], ops)
    values["sim.net_msgs_per_op"] = _ratio(traced["net_msgs"], ops)
    values["sim.net_bytes_per_op"] = _ratio(traced["net_bytes"], ops)
    for name in ("floor_events_per_s", "engine_only_steps_per_s"):
        values[f"sim.{name}"] = statistics.median(
            1.0 / reference_seconds(1.0 / speed, chunk) for speed, chunk in engine[name]
        )
    values["sim.engine_efficiency"] = (
        steps / untraced_s / values["sim.floor_events_per_s"]
    )

    values["sgx.ecalls_per_op"] = _ratio(sgx["ecalls"], ops)
    values["sgx.bytes_copied_per_op"] = _ratio(
        sgx["bytes_copied_in"] + sgx["bytes_copied_out"], ops
    )
    values["sgx.pages_swapped"] = sgx["pages_swapped"]

    orders = hybster["orders_sent"]
    ordered_requests = hybster["batched_requests"] if hybster["batches_sent"] else orders
    flushes = sum(v for k, v in hybster.items() if k.startswith("batch_flush_"))
    values["hybster.orders_per_op"] = _ratio(orders, ops)
    values["hybster.commits_per_op"] = _ratio(hybster["commits_sent"], ops)
    values["hybster.avg_batch"] = _ratio(ordered_requests, orders)
    values["hybster.max_pipeline_depth"] = exact["max_pipeline_depth"]
    values["hybster.flush_idle_share"] = _ratio(hybster["batch_flush_idle"], flushes)
    values["hybster.view_changes"] = hybster["view_changes"]
    values["hybster.checkpoints_stable"] = hybster["checkpoints_stable"]

    attempts = troxy["fast_read_attempts"]
    values["troxy.fast_read_hit_ratio"] = _ratio(troxy["fast_read_hits"], attempts)
    values["troxy.fast_read_conflict_ratio"] = _ratio(troxy["fast_read_conflicts"], attempts)
    values["troxy.ordered_share"] = _ratio(troxy["ordered_requests"], troxy["client_requests"])
    values["troxy.cache_hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    values["troxy.cache_invalidations_per_write"] = _ratio(
        cache["invalidations"], exact["writes"]
    )
    values["troxy.replies_voted_per_op"] = _ratio(troxy["replies_voted"], ops)
    values["troxy.monitor_switches"] = (
        monitor["switches_to_total_order"] + monitor["switches_to_fast_read"]
    )
    values["troxy.stale_installs_skipped"] = troxy["stale_installs_skipped"]

    lookups = shard.get("lookups", 0)
    values["shard.forward_share"] = _ratio(shard.get("forwards", 0), lookups)
    values["shard.lookups_per_op"] = _ratio(lookups, ops)
    values["shard.ring_imbalance"] = exact["ring_imbalance"]

    values["workloads.retries_per_op"] = _ratio(exact["retries"], ops)
    values["workloads.timeouts"] = window["client"]["timeouts"]
    values["workloads.failed_ops_share"] = _ratio(exact["failed"], exact["attempted"])
    return {
        m.name: {"value": values[m.name], "unit": m.unit} for m in spec.PER_LAYER
    }


def problems(passes: list, traced: dict = None) -> list:
    """Everything that makes the result of one workload incorrect."""
    first = passes[0]
    exact = first["exact"]
    out = []
    if exact["summary"]["count"] == 0:
        out.append("no operation completed in the window")
    if exact["failed"]:
        out.append(f"failed operations: {exact['failures']} {first['violations']}")
    if exact["window"]["hybster"]["view_changes"]:
        out.append("a view change happened in a fault-free run")
    others = passes[1:] + ([traced["profile"], traced["obs"]] if traced else [])
    for other in others:
        diff = _differences(exact, other["exact"])
        if diff:
            out.append(
                f"{other['kind']} pass is not identical to pass 1 at {diff[:6]}"
            )
    if traced and traced["obs"]["obs"]["coverage_min"] < 1.0 - COVERAGE_SLACK:
        out.append(f"critpath coverage {traced['obs']['obs']['coverage_min']} < 1")
    return out


# -- reporting ---------------------------------------------------------------


def print_metrics(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    for name, metric in metrics.items():
        line = f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}"
        if len(metric.get("passes", ())) > 1:
            q1, median, q3 = _quartiles(metric["passes"])
            line += (f"   (median {median:.6g}, quartiles {q1:.6g}..{q3:.6g}"
                     f" over {len(metric['passes'])} passes)")
        print(line)


def print_samples(passes: list) -> None:
    exact = passes[0]["exact"]
    ops = exact["summary"]["count"]
    print(f"  ops in window {ops} (~{ops // 100} beyond p99), "
          f"checked {exact['attempted']}, failed {exact['failed']}")
    raw = " ".join(f"{sum(cpu for cpu, _ in p['slices']):.3f}" for p in passes)
    calibrated = " ".join(f"{_window_seconds(p):.3f}" for p in passes)
    print(f"  window per pass: raw CPU-s {raw} | reference-s {calibrated}")


# -- modes -------------------------------------------------------------------


def traced_run(workload: str, seed: int, scale: float) -> dict:
    return {
        "profile": run_pass("profile", seed, workload, scale),
        "obs": run_pass("obs", seed, workload, scale),
    }


def driver_mode(args) -> int:
    """One workload; the last line of stdout is the driver's JSON."""
    scale = args.seconds / spec.FULL_SCALE_SECONDS
    passes = args.passes or (1 if args.trace else spec.DRIVER_PASSES)
    plain = [run_pass("plain", args.seed, args.workload, scale) for _ in range(passes)]
    exact = plain[0]["exact"]
    if args.trace:
        traced = traced_run(args.workload, args.seed, scale)
        engine = run_pass("engine", args.seed)
        metrics = per_layer(plain, traced["profile"], traced["obs"], engine)
        found = problems(plain, traced)
    else:
        metrics = end_to_end(plain)
        found = problems(plain)
    print_metrics(f"{args.workload} seed {args.seed} scale {scale:.4g}", metrics)
    print_samples(plain)
    for problem in found:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": not found,
        "attempted": exact["attempted"],
        "failed": exact["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }))
    return 1 if found else 0


def ledger_mode(args) -> int:
    """All workloads: interleaved untraced passes, then one traced run."""
    scale = args.scale
    n_passes = args.passes or spec.LEDGER_PASSES
    names = [w.name for w in spec.WORKLOADS]
    plain = {name: [] for name in names}
    for index in range(n_passes):
        # Round-robin, so a slow minute of the machine is shared by
        # every workload instead of landing on one.
        for name in names:
            plain[name].append(run_pass("plain", args.seed, name, scale))
            raw = sum(cpu for cpu, _chunk in plain[name][-1]["slices"])
            print(f"pass {index + 1}/{n_passes} {name}: window {raw:.2f} CPU-s, "
                  f"{_window_seconds(plain[name][-1]):.2f} reference-s", file=sys.stderr)
    engine = run_pass("engine", args.seed)
    result = {
        "meta": {
            "seed": args.seed, "scale": scale, "passes": n_passes,
            "python": platform.python_version(), "machine": platform.machine(),
        },
        "workloads": {},
    }
    status = 0
    for name in names:
        traced = traced_run(name, args.seed, scale)
        found = problems(plain[name], traced)
        exact = plain[name][0]["exact"]
        entry = result["workloads"][name] = {
            "correct": not found,
            "problems": found,
            "attempted": exact["attempted"],
            "failed": exact["failed"],
            "ops_in_window": exact["summary"]["count"],
            "end_to_end": end_to_end(plain[name]),
            "per_layer": per_layer(plain[name], traced["profile"], traced["obs"], engine),
        }
        print_metrics(f"== {name} (seed {args.seed}, scale {scale:.4g}) end to end",
                      entry["end_to_end"])
        print_samples(plain[name])
        print_metrics(f"-- {name} per layer (traced run)", entry["per_layer"])
        for problem in found:
            status = 1
            print(f"  INCORRECT: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return status


def agree_mode(path_a: str, path_b: str) -> int:
    """Two results of the same code: exact metrics equal, host in bound."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    failures = []
    if a["meta"] != b["meta"]:
        failures.append(f"runs are not comparable: {a['meta']} vs {b['meta']}")
    sections = (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER))
    for workload in (w.name for w in spec.WORKLOADS):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        print(f"\n== {workload}")
        for key in ("correct", "attempted", "failed"):
            if wa[key] != wb[key]:
                failures.append(f"{workload} {key}: {wa[key]} != {wb[key]}")
        for section, metric in ((s, m) for s, metrics in sections for m in metrics):
            ma, mb = wa[section][metric.name], wb[section][metric.name]
            va, vb = ma["value"], mb["value"]
            if metric.clock != "host":
                if va != vb:
                    failures.append(f"{workload} {metric.name}: {va!r} != {vb!r} (exact)")
                continue
            change = (vb - va) / va if va else 0.0
            line = f"  {metric.name:<34} {va:>14.6g} {vb:>14.6g} {metric.unit:<8} {change:+7.2%}"
            if "passes" in ma:
                (a1, am, a3), (b1, bm, b3) = _quartiles(ma["passes"]), _quartiles(mb["passes"])
                line += (f"   medians {am:.6g} / {bm:.6g},"
                         f" quartiles {a1:.6g}..{a3:.6g} / {b1:.6g}..{b3:.6g}")
            if metric.bound is not None and abs(change) > metric.bound:
                line += f"   OUTSIDE {metric.bound:.0%}"
                failures.append(
                    f"{workload} {metric.name}: {change:+.1%}, bound {metric.bound:.0%}"
                )
            print(line)
    print()
    for failure in failures:
        print(f"DISAGREE: {failure}")
    if not failures:
        print("agree: simulated metrics and counters identical, host metrics within bounds")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS],
                        help="run one workload in driver mode (default: the ledger)")
    parser.add_argument("--seed", type=int, default=42,
                        help="deployment seed and op-mix seed derive from it")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="driver mode: CPU-seconds of measured windows on the "
                             "reference box; sets the simulated window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="ledger mode: window scale (warm-up and window)")
    parser.add_argument("--passes", type=int, help="untraced passes per workload")
    parser.add_argument("--out", help="ledger mode: write the result set here")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two ledger result sets of the same code")
    parser.add_argument("--manifest", action="store_true",
                        help="print the content of BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if args.agree:
        return agree_mode(*args.agree)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        return driver_mode(args) if args.workload else ledger_mode(args)
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
