"""Experiment runners: one function per table/figure of the evaluation.

Every function returns structured rows (and prints nothing):
``python -m repro.bench`` formats them into the tracked paper-style
tables, on which ``tests/paper`` asserts the reproduced *shapes*.
Workload parameters follow Section VI:
echo service with configurable reply sizes, 100 +/- 20 ms WAN delay on
client links, 1 % writes for the contention scenario, and the HTTP page
service at ~500 req/s for Fig. 11.
"""

from __future__ import annotations

import random
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from ..analysis.history import HistoryRecorder
from ..analysis.linearizability import OpRecord, find_violation
from ..analysis.metrics import Collector, Summary
from ..apps.base import Operation, OpKind, Payload
from ..apps.echo import EchoService
from ..apps.httpd import HttpPageService, get_operation, post_operation, seed_pages
from ..apps.kvstore import KvStore, get, put
from ..obs.audit import LedgerProbes
from ..sim.network import GBPS, NicConfig
from ..troxy.monitor import ConflictMonitor
from ..workloads.loadgen import ClosedLoop, PacedLoop
from ..deploy import (
    WAN_DELAY,
    build_baseline,
    build_prophecy,
    build_standalone,
    build_troxy,
)

REQUEST_SIZES = (256, 1024, 4096, 8192)
REPLY_SIZES = (256, 1024, 4096, 8192)

#: WAN access link of each client machine. The testbed shapes client
#: traffic with netem; a finite-bandwidth access link is our equivalent
#: constraint (DESIGN.md, substitutions).
WAN_CLIENT_NIC = NicConfig(count=1, bandwidth=0.25 * GBPS)

#: Cores per server machine in every measured cell: 2, not the testbed's
#: 8. It scales the saturation point down so the simulation reaches it
#: with far fewer events. Every compared system is scaled identically,
#: so throughput *ratios* — the reproduced quantity — are unaffected.
REPLICA_CORES = 2


@dataclass(frozen=True)
class Point:
    """One measured configuration."""

    figure: str
    system: str
    x: object
    summary: Summary
    extra: dict = None

    @property
    def throughput(self) -> float:
        return self.summary.throughput

    @property
    def latency_ms(self) -> float:
        return self.summary.mean_latency * 1000


def write_source(size: int, key_space: int = 64) -> Callable[[int, int], Operation]:
    def source(i: int, seq: int) -> Operation:
        return Operation(
            OpKind.WRITE, "set", key=f"k{(i + seq) % key_space}",
            body=Payload(b"w", padded_size=size),
        )

    return source


def read_source(request_size: int = 10, key_space: int = 16) -> Callable[[int, int], Operation]:
    def source(i: int, seq: int) -> Operation:
        return Operation(
            OpKind.READ, "get", key=f"k{(i + seq) % key_space}",
            body=Payload(b"r", padded_size=request_size),
        )

    return source


def mixed_source(
    write_ratio: float, rng, request_size: int = 10, key_space: int = 16
) -> Callable[[int, int], Operation]:
    def source(i: int, seq: int) -> Operation:
        key = f"k{(i + seq) % key_space}"
        if rng.random() < write_ratio:
            return Operation(OpKind.WRITE, "set", key=key,
                             body=Payload(b"w", padded_size=request_size))
        return Operation(OpKind.READ, "get", key=key,
                         body=Payload(b"r", padded_size=request_size))

    return source


def _drive(
    build,
    n_clients: int,
    op_source,
    warmup: float,
    duration: float,
    obs=None,
    rate_per_client: Optional[float] = None,
    **client_kwargs,
):
    """Build a deployment, load it, return (deployment, window Summary).

    ``build`` is a zero-argument callable returning the deployment.
    Clients are closed-loop unless ``rate_per_client`` paces them;
    ``client_kwargs`` go to ``new_client``.

    ``obs`` accepts a :class:`repro.obs.ObsPlane` (duck-typed, so this
    module needs no obs import): it is attached right after the
    deployment is built — before clients connect, so session-installation
    ecalls are observed too — and the clients are wrapped so every
    invocation opens a root span.

    The returned deployment carries ``sim_stats``: the deterministic
    ``env.steps`` / ``env.scheduled_events`` / ``env.pending`` counters
    the event budgets read (``benchmarks/perf``), and the run's
    ``completed`` request count (warm-up included) for per-request
    ratios.
    """
    cluster = build()
    if obs is not None:
        obs.attach(cluster)
    clients = [cluster.new_client(**client_kwargs) for _ in range(n_clients)]
    if obs is not None:
        clients = obs.wrap_clients(clients)
    if rate_per_client is None:
        loadgen = ClosedLoop(cluster.env, clients, op_source, Collector())
    else:
        loadgen = PacedLoop(
            cluster.env, clients, op_source, Collector(),
            rate_per_client=rate_per_client,
        )
    loadgen.start()
    start = cluster.env.now
    cluster.env.run(until=start + warmup + duration)
    summary = loadgen.collector.summarize(start + warmup, start + warmup + duration)
    cluster.sim_stats = {
        "steps": cluster.env.steps,
        "scheduled_events": cluster.env.scheduled_events,
        "pending": cluster.env.pending,
        "completed": loadgen.stats.completed,
    }
    return cluster, summary


def _run_system(
    system: str,
    op_source,
    reply_size: int,
    n_clients: int,
    warmup: float,
    duration: float,
    wan=None,
    client_nic: Optional[NicConfig] = None,
    seed: int = 42,
    read_optimization: bool = True,
    monitor_factory=None,
    fast_reads: bool = True,
    request_distribution: str = "leader",
    batching=None,
    shards: int = 1,
    obs=None,
):
    """Drive one echo-service deployment closed-loop (see :func:`_drive`).

    ``system`` is "bl", "ctroxy", "etroxy" or "lease" (etroxy with
    leases on); ``shards`` applies to the Troxy systems. The cell's
    history is checked (:func:`_checked_drive`).
    """
    common = dict(
        seed=seed,
        app_factory=lambda: EchoService(reply_size=reply_size),
        wan=wan,
        client_nic=client_nic,
        replica_cores=REPLICA_CORES,
        batching=batching,
    )
    client_kwargs = {}
    if system == "bl":
        build = partial(build_baseline, **common)
        client_kwargs = dict(
            read_optimization=read_optimization,
            request_distribution=request_distribution,
        )
    elif system in ("ctroxy", "etroxy", "lease"):
        build = partial(
            build_troxy,
            boundary="jni" if system == "ctroxy" else "sgx",
            monitor_factory=monitor_factory,
            fast_reads=fast_reads,
            leases=system == "lease",
            shards=shards,
            **common,
        )
    else:
        raise ValueError(f"unknown system {system!r}")
    return _checked_drive(
        system, build, n_clients, op_source, warmup, duration, obs=obs, **client_kwargs
    )


def _checked_drive(label: str, build, n_clients, op_source, warmup, duration,
                   obs=None, **client_kwargs):
    """:func:`_drive` an EchoService cell and check its history.

    The deployment carries the history (:class:`_VersionHistory`) as
    ``history``; one that is not linearizable raises RuntimeError
    naming ``label``.
    """
    recorder = _VersionHistory(obs)
    cluster, summary = _drive(
        build, n_clients, op_source, warmup, duration, obs=recorder, **client_kwargs
    )
    cluster.history = recorder.history()
    violation = find_violation(cluster.history)
    if violation is not None:
        raise RuntimeError(f"{label} cell is not linearizable: {violation}")
    return cluster, summary


class _VersionHistory(HistoryRecorder):
    """An EchoService cell's history: each op's value is its key's
    version, N from ``ok:N`` or ``key@N`` (0, the initial value, is
    None). :func:`_drive` takes it as ``obs`` and it forwards to the
    caller's plane; with epsilon 0 it schedules nothing."""

    def __init__(self, obs):
        super().__init__(env=None, epsilon=0.0)
        self.obs = obs
        self.writes_invoked: Counter = Counter()

    def attach(self, cluster) -> None:
        self.env = cluster.env
        if self.obs is not None:
            self.obs.attach(cluster)

    def wrap_clients(self, clients):
        clients = [self.wrap(client) for client in clients]
        return clients if self.obs is None else self.obs.wrap_clients(clients)

    def invoked(self, op: Operation) -> None:
        if not op.is_read:
            self.writes_invoked[op.key] += 1

    def to_record(self, client_id, op, outcome, start, end) -> OpRecord:
        prefix = f"{op.key}@".encode() if op.is_read else b"ok:"
        version = int(outcome.result.content.removeprefix(prefix))
        kind = "get" if op.is_read else "put"
        return OpRecord(client_id, kind, op.key, version or None, start, end)

    def history(self) -> list[OpRecord]:
        """The records, less each read of a version no completed write
        returned that is at most the writes invoked on its key (one still
        in flight at the end). Any other such read stays in, and fails."""
        written = {(r.key, r.value) for r in self.records if r.kind == "put"}
        return [
            r for r in self.records
            if r.kind == "put" or r.value is None or (r.key, r.value) in written
            or r.value > self.writes_invoked[r.key]
        ]


# -- Fig. 5: message flow ---------------------------------------------------------------


def _unloaded_writes(cluster, client, rounds: int = 12) -> tuple[float, int]:
    """Mean unloaded latency over a few sequential writes (the LAN has
    jitter, so a single sample cannot order the deployments), and the
    protocol messages each write cost."""
    outcomes = []

    def driver():
        for i in range(rounds):
            outcome = yield from client.invoke(put(f"k{i}", b"v"))
            outcomes.append(outcome)

    messages_before = cluster.net.messages_sent
    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + 30.0)
    if len(outcomes) != rounds:
        raise RuntimeError("requests did not complete")
    mean_latency = sum(o.latency for o in outcomes) / rounds
    messages = (cluster.net.messages_sent - messages_before) // rounds
    return mean_latency, messages


def fig5_message_flow():
    """One isolated write through Hybster, Troxy at the leader and Troxy
    at a follower (Fig. 5), plus the Troxy-at-leader cell with the audit
    ledgers on -> (rows, leader-side proto.send trace, audit).

    ``rows`` are (deployment, mean latency, protocol messages per write);
    ``audit`` is (latency with ledgers on, ledger entries, certify_ledger
    ecalls)."""
    rows, traces = [], []
    for name, builder, client_kwargs in (
        ("hybster (client at leader)", build_baseline, {"read_optimization": False}),
        # replica-0 leads view 0
        ("troxy at leader (+1 phase)", build_troxy, {"contact_index": 0}),
        ("troxy at follower (+2 phases)", build_troxy, {"contact_index": 1}),
    ):
        cluster = builder(seed=1, app_factory=KvStore, trace=True)
        client = cluster.new_client(**client_kwargs)
        rows.append((name, *_unloaded_writes(cluster, client)))
        traces.append(cluster.tracer.filter(category="proto.send"))

    # Same troxy-at-leader cell with the accountability ledgers on
    # (repro.obs.audit probes, checkpoint interval 64): the only
    # simulated-time cost is the periodic certify_ledger ecall.
    cluster = build_troxy(seed=1, app_factory=KvStore, trace=True)
    probes = LedgerProbes(checkpoint_interval=64).attach(cluster)
    client = cluster.new_client(contact_index=0)
    probed_latency, _messages = _unloaded_writes(cluster, client)
    audit = (probed_latency, sum(len(l.entries) for l in probes.ledgers.values()),
             sum(l.checkpoints_requested for l in probes.ledgers.values()))

    return rows, traces[1], audit


# -- Fig. 6 / Fig. 7: totally ordered requests --------------------------------------


def fig6_ordered_writes_local(
    sizes=REQUEST_SIZES, n_clients: int = 64, duration: float = 0.25
) -> list[Point]:
    """Write-only workload, 10 B replies, LAN (Fig. 6)."""
    points = []
    for size in sizes:
        for system in ("bl", "ctroxy", "etroxy"):
            _, summary = _run_system(
                system, write_source(size), reply_size=10,
                n_clients=n_clients, warmup=0.1, duration=duration,
            )
            points.append(Point("fig6", system, size, summary))
    return points


def fig7_ordered_writes_wan(
    sizes=REQUEST_SIZES, n_clients: int = 850, duration: float = 2.0
) -> list[Point]:
    """Write-only workload with 100 +/- 20 ms client-link delay (Fig. 7).

    The baseline runs its client-side library in full: requests are
    distributed to every replica and f+1 matching replies cross the WAN
    back, so the constrained client access link carries n times the
    request bytes. Troxy clients exchange one request and one reply.
    """
    points = []
    for size in sizes:
        for system in ("bl", "etroxy"):
            _, summary = _run_system(
                system, write_source(size), reply_size=10,
                n_clients=n_clients, warmup=1.5, duration=duration,
                wan=WAN_DELAY, client_nic=WAN_CLIENT_NIC,
                request_distribution="all",
            )
            points.append(Point("fig7", system, size, summary))
    return points


# -- Fig. 8 / Fig. 9: read-only workloads -----------------------------------------------


def fig8_reads_local(
    reply_sizes=REPLY_SIZES, n_clients: int = 64, duration: float = 0.25
) -> list[Point]:
    """Read-only workload, 10 B requests, LAN (Fig. 8). BL uses the
    PBFT-like read optimization, Troxy the fast-read cache."""
    points = []
    for reply_size in reply_sizes:
        for system in ("bl", "etroxy"):
            _, summary = _run_system(
                system, read_source(), reply_size=reply_size,
                n_clients=n_clients, warmup=0.1, duration=duration,
            )
            points.append(Point("fig8", system, reply_size, summary))
    return points


def fig9_reads_wan(
    reply_sizes=REPLY_SIZES, n_clients: int = 1200, duration: float = 2.0
) -> list[Point]:
    """Read-only workload over the WAN (Fig. 9).

    The baseline's read optimization downloads 2f+1 full replies over
    the constrained client access link; Troxy sends one (remote cache
    checks exchange only hashes, on the server LAN).
    """
    points = []
    for reply_size in reply_sizes:
        for system in ("bl", "etroxy"):
            _, summary = _run_system(
                system, read_source(), reply_size=reply_size,
                n_clients=n_clients, warmup=1.5, duration=duration,
                wan=WAN_DELAY, client_nic=WAN_CLIENT_NIC,
                request_distribution="all",
            )
            points.append(Point("fig9", system, reply_size, summary))
    return points


def lease_reads(
    reply_size: int = 1024,
    n_clients: int = 16,
    duration: float = 0.25,
) -> list[Point]:
    """Leased vs voted reads on the LAN (docs/READS.md).

    Two cells on the fig8 read-only workload: ``etroxy`` (the fast-read
    cache with its per-read f+1 probe round) against ``lease`` (local
    serve under a leader-granted lease, no probe round). The lease cell
    *is* the local-serve latency — request decrypt, cache lookup, reply
    seal, nothing else. There is no WAN cell: the only WAN leg is
    client -> Troxy, which a lease cannot shorten (docs/READS.md).
    """
    points = []
    for system in ("etroxy", "lease"):
        cluster, summary = _run_system(
            system, read_source(key_space=4), reply_size=reply_size,
            n_clients=n_clients, warmup=0.1, duration=duration,
        )
        points.append(Point(
            "lease-local", system, reply_size, summary,
            extra={
                "lease_read_hits": sum(c.stats.lease_read_hits for c in cluster.cores),
                "fast_read_attempts": sum(c.stats.fast_read_attempts for c in cluster.cores),
                "grants_installed": sum(
                    c.stats.lease_grants_installed for c in cluster.cores
                ),
            },
        ))
    return points


# -- Fig. 10: concurrency handling -----------------------------------------------------------


def fig10_write_contention(
    n_clients: int = 64,
    duration: float = 0.4,
    reply_size: int = 4096,
    key_space: int = 1,
    write_ratio: float = 0.01,
) -> list[Point]:
    """1 % writes among reads on a small, contended key space (Fig. 10).

    Five bars: BL read-opt, BL all-ordered (reference), Troxy fast-read
    without the adaptive switch, Troxy with it, Troxy all-ordered
    (reference). The reported conflict rate is client-observed for the
    baseline (failed read quorums) and Troxy-observed for the fast-read
    cache (quorum mismatches / invalidated entries per fast attempt)."""
    points = []

    def run(system, label, read_optimization=True, fast_reads=True, monitor_factory=None):
        rng = random.Random(1234)
        cluster, summary = _run_system(
            system, mixed_source(write_ratio, rng, key_space=key_space),
            reply_size=reply_size, n_clients=n_clients, warmup=0.15,
            duration=duration, read_optimization=read_optimization,
            fast_reads=fast_reads, monitor_factory=monitor_factory,
        )
        if system == "bl":
            conflict_rate = summary.conflict_rate
        else:
            attempts = sum(c.stats.fast_read_attempts for c in cluster.cores)
            conflicts = sum(
                c.stats.fast_read_conflicts + c.stats.fast_read_timeouts
                + c.cache.stats.misses
                for c in cluster.cores
            )
            conflict_rate = conflicts / attempts if attempts else 0.0
        points.append(
            Point("fig10", label, write_ratio, summary,
                  extra={"conflict_rate": conflict_rate})
        )

    run("bl", "bl-read-opt")
    run("bl", "bl-ordered", read_optimization=False)
    # Troxy with the conflict monitor effectively disabled (threshold 1.0).
    run(
        "etroxy", "troxy-fast-read",
        monitor_factory=lambda: ConflictMonitor(threshold=1.0),
    )
    # Troxy with the adaptive total-order switch at its default threshold.
    run("etroxy", "troxy-adaptive")
    run("etroxy", "troxy-ordered", fast_reads=False)
    return points


# -- Batching sweep (docs/BATCHING.md) -------------------------------------------------------------


def batching_throughput(
    n_clients: int = 32,
    duration: float = 0.25,
    request_size: int = 1024,
    read_reply_size: int = 1024,
) -> list[Point]:
    """Agreement batching on the fig6-style local write workload.

    One fixed client count, batching off and on. "off" is the
    pre-batching path (unbounded slot concurrency, no batch layer);
    "adaptive" is the one arrival-rate-driven policy (DESIGN.md D20).
    A fig8-style fast-read guard runs at both settings — batched
    agreement must not move the fast-read p50, because fast reads never
    enter the ordering pipeline.
    """
    settings = ("off", "adaptive")
    points = []
    for setting in settings:
        cluster, summary = _run_system(
            "etroxy", write_source(request_size), reply_size=10,
            n_clients=n_clients, warmup=0.1, duration=duration,
            batching=setting,
        )
        stats = cluster.leader.stats
        points.append(Point(
            "batching-writes", f"etroxy/b={setting}", setting, summary,
            extra={
                "avg_batch": (
                    stats.batched_requests / stats.batches_sent
                    if stats.batches_sent else 1.0
                ),
                "max_pipeline_depth": stats.max_pipeline_depth,
                "flush_reasons": {
                    "size": stats.batch_flush_size,
                    "idle": stats.batch_flush_idle,
                    "timeout": stats.batch_flush_timeout,
                },
            },
        ))
    for setting in settings:
        _, summary = _run_system(
            "etroxy", read_source(), reply_size=read_reply_size,
            n_clients=n_clients, warmup=0.1, duration=duration,
            batching=setting,
        )
        points.append(Point("batching-reads", f"etroxy/b={setting}", setting, summary))
    return points


# -- Sharding: write throughput vs agreement-group count ------------------------------------------


def sharding_throughput(
    shard_counts: tuple = (1, 2, 4, 8),
    n_clients: int = 96,
    duration: float = 0.25,
    request_size: int = 1024,
    key_space: int = 64,
) -> list[Point]:
    """Write-throughput ladder over agreement-group counts (docs/SHARDING.md).

    The fig6-style local write workload, uniform over ``key_space`` keys,
    driven against ``build_troxy(shards=N)`` cells at 1/2/4/8 groups.
    Keys are routed by the consistent-hash ring, so at N groups
    roughly (N-1)/N of requests arrive at a Troxy outside the owning
    group and take the forwarding path; the aggregate still scales
    because each group runs its own leader, sealed counters, and batch
    assembler in parallel.

    The client count is held *fixed across the ladder* (saturating the
    eight-group cell), so shards are the only variable. The one-group
    cell is the plain Troxy deployment: no router, so nothing is looked
    up or forwarded and the one group owns every key.
    """
    keys = [f"k{i}" for i in range(key_space)]
    points = []
    for shards in shard_counts:
        cluster, summary = _run_system(
            "etroxy", write_source(request_size, key_space=key_space),
            reply_size=10, n_clients=n_clients, warmup=0.1, duration=duration,
            shards=shards,
        )
        router = cluster.router
        lookups = router.stats.lookups if router else 0
        forwards = router.stats.forwards if router else 0
        points.append(Point(
            "sharding-writes", f"etroxy/s={shards}", shards, summary,
            extra={
                "lookups": lookups,
                "forwards": forwards,
                "forward_share": forwards / lookups if lookups else 0.0,
                "ring_split": (
                    cluster.ring.load_split(keys) if router else {"g0": key_space}
                ),
            },
        ))
    return points


# -- Fig. 11: HTTP service latency ----------------------------------------------------------------


def fig11_http_latency(
    n_clients: int = 100,
    total_rate: float = 500.0,
    duration: float = 3.0,
    wan_only: bool = False,
) -> list[Point]:
    """Mean latency of the HTTP page service at a non-saturating load,
    local network and WAN (Fig. 11)."""
    rate_per_client = total_rate / n_clients
    pages = sorted(seed_pages().keys())
    points = []

    def op_source_factory(seed):
        rng = random.Random(seed)

        def source(i, seq):
            page = pages[(i * 7 + seq) % len(pages)]
            if rng.random() < 0.10:  # GET-heavy mix with some POSTs
                return post_operation(page, b"p" * 200)
            return get_operation(page, extra_payload=170)

        return source

    scenarios = [("wan", WAN_DELAY)] if wan_only else [("local", None), ("wan", WAN_DELAY)]
    systems = {
        "jetty": build_standalone,
        "bl": build_baseline,
        "prophecy": build_prophecy,
        "troxy": build_troxy,
    }
    for scenario, wan in scenarios:
        nic = WAN_CLIENT_NIC if wan is not None else None
        for system, builder in systems.items():
            _, summary = _drive(
                partial(
                    builder, seed=42, app_factory=HttpPageService, wan=wan,
                    client_nic=nic,
                ),
                n_clients, op_source_factory(7), warmup=1.0, duration=duration,
                rate_per_client=rate_per_client,
            )
            points.append(Point("fig11", system, scenario, summary))
    return points


# -- Design ablations (DESIGN.md D1, D2, D5; Section V-A) -----------------------------------------


def ablation_sgx_boundary() -> dict[str, tuple[float, float]]:
    """D5: 256 B ordered writes with the protection boundary of the same
    Troxy code swept none -> JNI -> SGX, and the baseline for reference
    -> {cell: (op/s, ecalls per completed request)}."""
    n_clients = 64
    _, summary = _run_system(
        "bl", write_source(256), reply_size=10, n_clients=n_clients,
        warmup=0.1, duration=0.25, read_optimization=False,
    )
    rows = {"baseline (no troxy)": (summary.throughput, 0.0)}
    for boundary in ("none", "jni", "sgx"):
        cluster, summary = _checked_drive(
            f"troxy boundary={boundary}",
            partial(
                build_troxy, seed=42, app_factory=lambda: EchoService(reply_size=10),
                boundary=boundary, replica_cores=REPLICA_CORES,
            ),
            n_clients, write_source(256), warmup=0.1, duration=0.25,
        )
        ecalls = sum(h.enclave.stats.ecalls for h in cluster.hosts)
        completed = max(1, cluster.sim_stats["completed"])
        rows[f"troxy boundary={boundary}"] = (summary.throughput, ecalls / completed)
    return rows


#: A 1 MB EPC: 512 hot keys x 8 KB replies cannot fit.
TINY_EPC = 1 * 1024 * 1024


def ablation_epc_placement() -> dict[str, tuple[float, int, int]]:
    """Section V-A: reads of 512 hot 8 KB replies against a 1 MB EPC,
    with the cache stored outside the enclave (hash inside) or inside
    (EPC paging) -> {placement: (op/s, pages swapped, peak resident B)}."""
    rows = {}
    for label, outside in (("outside (hash inside)", True), ("inside (EPC paging)", False)):
        cluster, summary = _checked_drive(
            label,
            partial(
                build_troxy, seed=9, app_factory=lambda: EchoService(reply_size=8192),
                cache_outside=outside, epc_bytes=TINY_EPC, replica_cores=REPLICA_CORES,
            ),
            48, read_source(key_space=512), warmup=0.3, duration=0.5,
        )
        rows[label] = (
            summary.throughput,
            sum(host.enclave.stats.pages_swapped for host in cluster.hosts),
            max(host.enclave.resident_bytes for host in cluster.hosts),
        )
    return rows


def _write_then_read(break_invalidation: bool):
    """put v1, get, put v2, get on one key -> (history, contact core stats)."""
    cluster = build_troxy(seed=17, app_factory=KvStore)
    if break_invalidation:
        for core in cluster.cores:
            core.keys_fn = lambda op: ()  # writes invalidate nothing
    recorder = HistoryRecorder(cluster.env)
    client = recorder.wrap(cluster.new_client(contact_index=0))

    def driver():
        for op in (put("k", b"v1"), get("k"), put("k", b"v2"), get("k")):
            yield from client.invoke(op)

    cluster.env.process(driver())
    cluster.env.run(until=30.0)
    return recorder.records, cluster.cores[0].stats


def ablation_invalidation():
    """D2: the write-then-read scenario with write invalidation broken
    and intact -> (broken history, intact history, broken stats, intact
    stats); the histories go to the linearizability checker."""
    broken_history, broken_stats = _write_then_read(break_invalidation=True)
    intact_history, intact_stats = _write_then_read(break_invalidation=False)
    return broken_history, intact_history, broken_stats, intact_stats


class _ClientLinkBytes:
    """Bytes on the client machines' access links, counted from the
    ``net.send`` events of the probe bus. Passed to :func:`_drive` as its
    ``obs``: it subscribes once the deployment is built and leaves the
    clients as they are."""

    def attach(self, cluster) -> None:
        self.machines = {m.node.name for m in cluster.machines}
        self.rx = self.tx = 0
        cluster.probe.subscribe(self)

    def wrap_clients(self, clients):
        return clients

    def event(self, t, kind, node, subject, attrs) -> None:
        if kind == "net.send":
            if attrs["dst"] in self.machines:
                self.rx += attrs["size"]
            if node in self.machines:
                self.tx += attrs["size"]


def ablation_voter(n_clients: int = 24, reply_size: int = 4096, duration: float = 6.0):
    """D1: what the client itself pays per read over the WAN with
    client-side (BL) and server-side (Troxy) voting -> {system: (bytes
    downloaded, bytes uploaded, mean latency)} per completed request."""
    rows = {}
    for system, builder, client_kwargs in (
        ("bl", build_baseline, {"request_distribution": "all"}),
        ("troxy", build_troxy, {}),
    ):
        link = _ClientLinkBytes()
        cluster, summary = _checked_drive(
            system,
            partial(
                builder, seed=5, app_factory=lambda: EchoService(reply_size=reply_size),
                wan=WAN_DELAY, client_nic=WAN_CLIENT_NIC,
            ),
            n_clients, read_source(), warmup=0.0, duration=duration, obs=link,
            **client_kwargs,
        )
        completed = max(1, cluster.sim_stats["completed"])
        rows[system] = (link.rx / completed, link.tx / completed, summary.mean_latency)
    return rows


# -- Simulated-CPU account (docs/PERFORMANCE.md) --------------------------------------------------


class _CpuAccount:
    """Busy and wait seconds per (node, call site) of the charges that
    start in the window, from the ``node.compute`` events of the bus. A
    call site is ``<module>.<function>`` of the charging frame, or
    ``ecall <name>`` for a crossing, whose fixed cost (``per_call``) is
    also summed per node. An ``obs`` of :func:`_drive`, like
    :class:`_ClientLinkBytes`."""

    KIND = "node.compute"

    def __init__(self, warmup: float, duration: float):
        self.warmup, self.duration = warmup, duration
        self.busy = defaultdict(float)  # (node, site) -> seconds
        self.per_call, self.wait = defaultdict(float), defaultdict(float)  # node -> s
        self.acquisitions = Counter()  # node -> charges

    def attach(self, cluster) -> None:
        start = cluster.env.now + self.warmup
        self.window = (start, start + self.duration)
        cluster.probe.subscribe(self)

    def wrap_clients(self, clients):
        return clients

    def event(self, t, kind, node, subject, attrs) -> None:
        if kind != self.KIND:
            return
        seconds, waited = attrs["seconds"], attrs["waited"]
        if not self.window[0] <= t - seconds - waited < self.window[1]:
            return
        # Up the stack: Probe.event, Node.compute's generator, the caller.
        frame = sys._getframe(3)
        site = f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name}"
        if site == "enclave.ecall":
            site = f"ecall {frame.f_locals['name']}"
            self.per_call[node] += frame.f_locals["self"].costs.per_call
        self.busy[node, site] += seconds
        self.wait[node] += waited
        self.acquisitions[node] += 1

    def role(self, nodes, summary: Summary) -> dict:
        """The account of ``nodes``, per operation completed in the window."""
        ops = summary.count
        sites, node_busy = defaultdict(float), defaultdict(float)
        for (node, site), seconds in self.busy.items():
            if node in nodes:
                sites[site] += seconds
                node_busy[node] += seconds
        busy = sum(node_busy.values())
        per_call = sum(self.per_call[n] for n in nodes)
        acquisitions = max(1, sum(self.acquisitions[n] for n in nodes))
        return {
            "busiest": max(node_busy.values(), default=0.0) / summary.duration / REPLICA_CORES,
            "busy_us": busy / ops * 1e6,
            "per_call_us": per_call / ops * 1e6,
            "per_call_share": per_call / busy if busy else 0.0,
            "wait_us": sum(self.wait[n] for n in nodes) / acquisitions * 1e6,
            "sites": sorted(((seconds / ops * 1e6, site) for site, seconds in sites.items()),
                            key=lambda row: (-row[0], row[1])),
        }


def cpu_account() -> list[Point]:
    """The perf ledger's four traffic shapes as etroxy cells (seed 1, its
    windows at ``--seconds 10``: scale 10/33) -> one point per cell whose
    ``extra["roles"]`` maps replicas / leaders / followers to (node
    count, :meth:`_CpuAccount.role`)."""
    cells = (  # name, op source, reply B, clients, warm-up, window, build keywords
        ("writes_lan", write_source(1024, 64), 10, 32, 0.05, 0.20, {"batching": "adaptive"}),
        ("reads_lan", read_source(10, 16), 1024, 32, 0.05, 0.20, {}),
        ("mixed_contended", mixed_source(0.15, random.Random(1), 10, 16), 1024, 32,
         0.05, 0.15, {}),
        ("writes_sharded", write_source(1024, 64), 10, 96, 0.02, 0.04, {"shards": 4}),
    )
    points = []
    for name, source, reply_size, n_clients, warmup, window, kwargs in cells:
        account = _CpuAccount(warmup * (10 / 33), window * (10 / 33))
        cluster, summary = _run_system(
            "etroxy", source, reply_size, n_clients, account.warmup, account.duration,
            seed=1, obs=account, **kwargs,
        )
        replicas = {replica.node.name for replica in cluster.replicas}
        leaders = {group.leader.node.name for group in cluster.groups}
        roles = {"replicas": replicas, "leaders": leaders, "followers": replicas - leaders}
        points.append(Point("cpu_account", "etroxy", name, summary, extra={"roles": {
            role: (len(nodes), account.role(nodes, summary)) for role, nodes in roles.items()
        }}))
    return points


# -- Table I ------------------------------------------------------------------------------------------


@dataclass(frozen=True)
class TableOneRow:
    system: str
    replicas: str
    read_quorum: str
    consistency: str


def table1_rows() -> list[TableOneRow]:
    """The static system comparison (Table I). Prophecy's replica count
    reflects its PBFT base; the consistency column is *verified* by
    tests/baselines (stale-read witness) and the linearizability suite."""
    return [
        TableOneRow("BL", "2f+1", "f+1 replicas", "Strong"),
        TableOneRow("Prophecy", "3f+1", "1 replica + middlebox", "Weak"),
        TableOneRow("Troxy", "2f+1", "f+1 replicas", "Strong"),
    ]
