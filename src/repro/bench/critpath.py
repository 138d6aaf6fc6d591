"""Critical-path attribution sidecars for the paper benchmarks.

Each runner drives a scaled-down, instrumented replica of one benchmark
workload (fig5-style ordered writes, fig8/fig9 reads, batching,
sharding) under an :class:`~repro.obs.ObsPlane` and renders the
:mod:`repro.obs.critpath` bottleneck report into a tracked
``benchmarks/results/critpath_<name>.txt`` file. The instrumented runs
are *companions*, not replacements: the headline benchmarks stay
uninstrumented (zero-perturbation is tested, but the attribution runs
use fewer clients and shorter windows to keep ``python -m repro.bench``
fast), so the sidecar reports explain *where the time goes* while the
figure files report *how much there is*.

``sharding_gap_notes`` backs the scaling-gap analysis appended to
``benchmarks/results/sharding.txt``: it attributes a 1-group and a
4-group run and quantifies how much of the gap the forwarding hop and
the fronting-Troxy accept path account for.
"""

from __future__ import annotations

from ..analysis.metrics import percentile
from ..deploy import WAN_DELAY
from ..obs.critpath import analyze, render_report
from ..obs.probes import ObsPlane
from .experiments import (
    WAN_CLIENT_NIC,
    _run_system,
    read_source,
    write_source,
)


def attributed_system_run(
    label: str,
    system: str = "etroxy",
    source=None,
    reply_size: int = 1024,
    n_clients: int = 16,
    warmup: float = 0.05,
    duration: float = 0.2,
    seed: int = 42,
    wan=None,
    client_nic=None,
    request_distribution: str = "leader",
    batching=None,
):
    """One instrumented unsharded run -> (analysis, summary)."""
    plane = ObsPlane()
    _, summary = _run_system(
        system,
        source if source is not None else write_source(1024),
        reply_size=reply_size,
        n_clients=n_clients,
        warmup=warmup,
        duration=duration,
        wan=wan,
        client_nic=client_nic,
        seed=seed,
        request_distribution=request_distribution,
        batching=batching,
        obs=plane,
    )
    plane.finalize()
    return analyze(plane.spans), summary


def attributed_sharded_run(
    shards: int,
    seed: int = 42,
    n_clients: int = 24,
    warmup: float = 0.05,
    duration: float = 0.2,
    request_size: int = 1024,
    key_space: int = 64,
    batching=None,
):
    """One instrumented sharded run -> (analysis, summary, cluster, plane).

    Mirrors :func:`repro.bench.experiments.sharding_throughput`'s write
    ladder cell at a reduced client count; the flat ``replicas``/``hosts``
    lists of the deployment let the same ObsPlane instrument every
    group, so cross-group forwarding produces ``shard.forward`` spans
    inside one connected trace.
    """
    plane = ObsPlane()
    cluster, summary = _run_system(
        "etroxy", write_source(request_size, key_space=key_space),
        reply_size=10, n_clients=n_clients, warmup=warmup, duration=duration,
        seed=seed, batching=batching, shards=shards, obs=plane,
    )
    plane.finalize()
    return analyze(plane.spans), summary, cluster, plane


def critpath_fig5() -> str:
    """Fig. 5-style ordered-write latency, attributed (LAN, etroxy)."""
    analysis, _ = attributed_system_run(
        "fig5", source=write_source(1024), reply_size=10,
    )
    return render_report(
        analysis, "fig5-style ordered writes, 1 KiB, LAN (etroxy)"
    )


def critpath_fig8() -> str:
    """Fig. 8-style local reads, attributed (fast-read path)."""
    analysis, _ = attributed_system_run(
        "fig8", source=read_source(), reply_size=1024,
    )
    return render_report(
        analysis, "fig8-style read-only, 1 KiB replies, LAN (etroxy)"
    )


def critpath_fig9() -> str:
    """Fig. 9-style WAN reads, attributed (reply delivery dominates)."""
    analysis, _ = attributed_system_run(
        "fig9", source=read_source(), reply_size=1024,
        n_clients=32, warmup=0.6, duration=0.8,
        wan=WAN_DELAY, client_nic=WAN_CLIENT_NIC,
        request_distribution="all",
    )
    return render_report(
        analysis, "fig9-style read-only, 1 KiB replies, 100±20 ms WAN (etroxy)"
    )


def critpath_batching() -> str:
    """Adaptive-batching writes, attributed (batch-queue wait visible)."""
    analysis, _ = attributed_system_run(
        "batching", source=write_source(1024), reply_size=10,
        n_clients=32, batching="adaptive",
    )
    return render_report(
        analysis, "batching writes, 32 clients, adaptive cutoff (etroxy)"
    )


def critpath_sharding() -> str:
    """4-group sharded writes, attributed (forwarding hop visible)."""
    analysis, _, _, _ = attributed_sharded_run(shards=4)
    return render_report(
        analysis, "sharded writes, 4 groups, uniform keys (etroxy)"
    )


def sharding_gap_notes() -> list[str]:
    """Attribution-backed notes on the 4-group scaling gap.

    Compares an instrumented 1-group run against a 4-group run (same
    seed, clients, and keyspace) and decomposes the per-request latency
    inflation that keeps measured speedup below the ideal 4x: the
    forwarding hop itself, the in-group relay leg a forward pays when it
    lands on a follower (booked as ordering wait), the fronting Troxy's
    accept work, and everything else (per-group load, queueing).
    """
    one, _, _, _ = attributed_sharded_run(shards=1)
    four, _, cluster, _ = attributed_sharded_run(shards=4)
    if not one.requests or not four.requests:
        return ["critpath: no completed requests to attribute"]

    def mean_phase(analysis, phase, part=None):
        total = sum(
            s for (p, q), s in analysis.totals.items()
            if p == phase and part in (None, q)
        )
        return total / len(analysis.requests)

    e2e_1 = one.mean_e2e
    e2e_4 = four.mean_e2e
    inflation = e2e_4 - e2e_1
    hop = mean_phase(four, "forward_hop") - mean_phase(one, "forward_hop")
    accept = mean_phase(four, "troxy_accept") - mean_phase(one, "troxy_accept")
    relay = (
        mean_phase(four, "ordering", "wait") - mean_phase(one, "ordering", "wait")
    )
    fwd = [r for r in four.requests if r.forwarded]
    local = [r for r in four.requests if not r.forwarded]
    stats = cluster.router.stats
    fwd_share = stats.forwards / stats.lookups if stats.lookups else 0.0
    lines = [
        "",
        "why not 4.00x at 4 groups (critical-path attribution, seed 42):",
        f"  per-request mean e2e: {e2e_1 * 1e3:.3f} ms at 1 group -> "
        f"{e2e_4 * 1e3:.3f} ms at 4 groups "
        f"({inflation * 1e3:+.3f} ms per request)",
        f"  forwarding hop (wait+service): {hop * 1e3:+.3f} ms of that "
        f"({hop / inflation:.0%})" if inflation > 0 else
        f"  forwarding hop (wait+service): {hop * 1e3:+.3f} ms per request",
        f"  in-group relay (ordering wait): {relay * 1e3:+.3f} ms "
        "(ordered forwards go straight to the leader; at 1 group 2/3 of clients contact a follower)",
        f"  fronting-troxy accept path:    {accept * 1e3:+.3f} ms "
        "(the forward tag is the request's one authentication)",
    ]
    if fwd and local:
        p50_fwd = percentile(sorted(r.e2e for r in fwd), 0.5)
        p50_local = percentile(sorted(r.e2e for r in local), 0.5)
        lines.append(
            f"  forwarded vs local p50: {p50_fwd * 1e3:.3f} ms vs "
            f"{p50_local * 1e3:.3f} ms "
            f"({fwd_share:.0%} of router lookups forward)"
        )
    lines += [
        "  -> what is left is the one cross-group hop on ~3/4 of requests,",
        "     inherent to a fronting Troxy outside the owning group: no relay,",
        "     no second MAC and no agreement contention; the rest is CPU",
        "     queueing every request pays at any group count: see",
        "     benchmarks/results/critpath_sharding.txt",
    ]
    return lines


#: name -> report producer; ``python -m repro.bench critpath`` runs all.
SIDECARS = {
    "critpath_fig5": critpath_fig5,
    "critpath_fig8": critpath_fig8,
    "critpath_fig9": critpath_fig9,
    "critpath_batching": critpath_batching,
    "critpath_sharding": critpath_sharding,
}
