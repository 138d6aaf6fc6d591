"""What the perf ledger measures: workloads, layers and metric names.

Pure declarations (no ``repro`` import): ``run.py`` orchestrates from
them, ``onepass.py`` builds deployments from them, and ``BENCHMARK.json``
is ``run.py --manifest`` — the smoke test pins the three to each other.
README.md explains why each workload and metric exists.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic mix against one deployment.

    Every workload is etroxy (``boundary="sgx"``), ``f=1``,
    ``replica_cores=2``, EchoService, LAN links, leases off. ``warmup``
    and ``window`` are simulated seconds at scale 1.0.
    """

    name: str
    why: str
    shards: int
    batching: str
    clients: int
    keys: int
    write_share: float
    request_bytes: int
    reply_bytes: int
    warmup: float
    window: float


WORKLOADS = (
    Workload(
        "writes_lan",
        "full ordered path with adaptive batching: accept, batch queue, order, "
        "certify, execute, vote; agreement, sgx and crypto changes show here only",
        shards=1, batching="adaptive", clients=32, keys=64, write_share=1.0,
        request_bytes=1024, reply_bytes=10, warmup=0.05, window=0.20,
    ),
    Workload(
        "reads_lan",
        "fast-read cache does all the work (ordered share ~0): bypass workload "
        "for agreement/batching/sharding changes, claim workload for cache changes",
        shards=1, batching="off", clients=32, keys=16, write_share=0.0,
        request_bytes=10, reply_bytes=1024, warmup=0.05, window=0.20,
    ),
    Workload(
        "mixed_contended",
        "15% writes invalidate what 85% reads serve over 16 keys: a fast-read "
        "gain bought by weaker or later invalidation shows as p99 / hit-ratio loss",
        shards=1, batching="off", clients=32, keys=16, write_share=0.15,
        request_bytes=10, reply_bytes=1024, warmup=0.05, window=0.15,
    ),
    Workload(
        "writes_sharded",
        "4 groups, unbatched writes at saturation: the only workload where the "
        "shard router, forward hop and double envelope handling do work",
        shards=4, batching="off", clients=96, keys=64, write_share=1.0,
        request_bytes=1024, reply_bytes=10, warmup=0.02, window=0.04,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

#: CPU-seconds the measured windows of one five-pass run took on the
#: 2-core reference box at scale 1.0 (~6.6 s per window). The driver's
#: ``--seconds S`` selects scale ``S / FULL_SCALE_SECONDS``, so a run
#: *measures* for about S CPU-seconds there while the simulated work
#: stays a pure function of (workload, seed, S).
FULL_SCALE_SECONDS = 33.0
RUN_SECONDS = 10
DRIVER_PASSES = 5
LEDGER_PASSES = 7

#: Host self-time is bucketed by these; they are this repo's packages
#: (``sim`` split by module because the engine is the hot loop).
LAYERS = (
    "sim.engine", "sim.resources", "sim.network", "crypto", "sgx", "hybster",
    "troxy", "shard", "apps", "workloads", "analysis", "obs",
)

#: Mirror of ``repro.obs.critpath.PHASES`` (checked in the traced pass).
PHASES = (
    "troxy_accept", "fast_read", "forward_hop", "batch_queue", "ordering",
    "certification", "execute", "voting", "reply_delivery",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: "sim" and "count" repeat exactly for one (commit, seed); "host"
    #: is CPU time or memory of the machine running the simulator.
    clock: str
    #: Share by which an end-to-end metric may worsen (driver medians
    #: over ten seeds; ``--agree`` applies it to host metrics only and
    #: demands equality of everything exact). None for per-layer.
    bound: float = None


END_TO_END = (
    Metric("sim_throughput_ops", "ops/s", "higher", "sim", 0.05),
    Metric("sim_latency_p50_ms", "ms", "lower", "sim", 0.05),
    Metric("sim_latency_p99_ms", "ms", "lower", "sim", 0.15),
    Metric("host_steps_per_s", "steps/s", "higher", "host", 0.20),
    Metric("host_us_per_op", "us", "lower", "host", 0.20),
    Metric("host_peak_rss_mb", "MB", "lower", "host", 0.10),
    Metric("setup_s", "s", "lower", "host", 0.25),
)


def _per_layer() -> tuple:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.host_self_share", "share", "lower", "host"))
        out.append(Metric(f"{layer}.calls_per_op", "1/op", "lower", "count"))
    out.append(Metric("trace.profile_overhead_x", "x", "lower", "host"))
    for phase in PHASES:
        out.append(Metric(f"critpath.{phase}.wait_ms", "ms", "lower", "sim"))
        out.append(Metric(f"critpath.{phase}.service_ms", "ms", "lower", "sim"))
    out += [
        Metric("critpath.coverage_min", "share", "higher", "sim"),
        Metric("obs.host_overhead_x", "x", "lower", "host"),
        Metric("obs.spans_per_op", "1/op", "lower", "count"),
        Metric("obs.sim_perturbation", "count", "lower", "count"),
        Metric("sim.steps_per_op", "1/op", "lower", "count"),
        Metric("sim.scheduled_events_per_op", "1/op", "lower", "count"),
        Metric("sim.net_msgs_per_op", "1/op", "lower", "count"),
        Metric("sim.net_bytes_per_op", "B/op", "lower", "count"),
        Metric("sim.floor_events_per_s", "1/s", "higher", "host"),
        Metric("sim.engine_only_steps_per_s", "steps/s", "higher", "host"),
        Metric("sim.engine_efficiency", "share", "higher", "host"),
        Metric("sgx.ecalls_per_op", "1/op", "lower", "count"),
        Metric("sgx.bytes_copied_per_op", "B/op", "lower", "count"),
        Metric("sgx.pages_swapped", "count", "lower", "count"),
        Metric("crypto.mac_ops_per_op", "1/op", "lower", "count"),
        Metric("crypto.digest_ops_per_op", "1/op", "lower", "count"),
        Metric("crypto.tls_records_per_op", "1/op", "lower", "count"),
        Metric("hybster.orders_per_op", "1/op", "lower", "count"),
        Metric("hybster.commits_per_op", "1/op", "lower", "count"),
        Metric("hybster.avg_batch", "req/order", "higher", "count"),
        Metric("hybster.max_pipeline_depth", "count", "higher", "count"),
        Metric("hybster.flush_idle_share", "share", "lower", "count"),
        Metric("hybster.view_changes", "count", "lower", "count"),
        Metric("hybster.checkpoints_stable", "count", "higher", "count"),
        Metric("troxy.fast_read_hit_ratio", "share", "higher", "count"),
        Metric("troxy.fast_read_conflict_ratio", "share", "lower", "count"),
        Metric("troxy.ordered_share", "share", "lower", "count"),
        Metric("troxy.cache_hit_ratio", "share", "higher", "count"),
        Metric("troxy.cache_invalidations_per_write", "1/op", "lower", "count"),
        Metric("troxy.replies_voted_per_op", "1/op", "lower", "count"),
        Metric("troxy.monitor_switches", "count", "lower", "count"),
        Metric("troxy.stale_installs_skipped", "count", "lower", "count"),
        Metric("shard.forward_share", "share", "lower", "count"),
        Metric("shard.lookups_per_op", "1/op", "lower", "count"),
        Metric("shard.ring_imbalance", "x", "lower", "count"),
        Metric("workloads.retries_per_op", "1/op", "lower", "count"),
        Metric("workloads.timeouts", "count", "lower", "count"),
        Metric("workloads.failed_ops_share", "share", "lower", "count"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


def manifest() -> dict:
    """The content of ``BENCHMARK.json`` (keys fixed by the driver)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
