"""WAN-specific end-to-end behaviour (small versions of Fig. 7/9 claims)."""

import pytest

from repro.analysis.metrics import Collector
from repro.apps.echo import EchoService
from repro.deploy import WAN_DELAY, build_baseline, build_troxy
from repro.bench.experiments import WAN_CLIENT_NIC, read_source, write_source
from repro.workloads.loadgen import ClosedLoop


def run(cluster, clients, source, sim_time=3.0, warmup=1.0):
    loadgen = ClosedLoop(cluster.env, clients, source, Collector())
    loadgen.start()
    cluster.env.run(until=sim_time)
    return loadgen.collector.summarize(warmup, sim_time)


def test_troxy_latency_is_one_wan_round_trip():
    cluster = build_troxy(
        seed=171, app_factory=lambda: EchoService(reply_size=10),
        wan=WAN_DELAY, client_nic=WAN_CLIENT_NIC,
    )
    clients = [cluster.new_client() for _ in range(8)]
    summary = run(cluster, clients, write_source(256))
    # ~2 x 100 ms +/- jitter; the BFT machinery adds sub-ms on the LAN.
    assert 0.17 < summary.mean_latency < 0.24


def test_baseline_wan_latency_exceeds_troxy():
    results = {}
    for label, builder in (("bl", build_baseline), ("troxy", build_troxy)):
        cluster = builder(
            seed=172, app_factory=lambda: EchoService(reply_size=1024),
            wan=WAN_DELAY, client_nic=WAN_CLIENT_NIC,
        )
        if label == "bl":
            clients = [
                cluster.new_client(request_distribution="all") for _ in range(48)
            ]
        else:
            clients = [cluster.new_client() for _ in range(48)]
        results[label] = run(cluster, clients, read_source(), sim_time=4.0)
    # The client-side library's shared connections + multi-reply quorums
    # cost real latency that the server-side voter removes.
    assert results["bl"].mean_latency > results["troxy"].mean_latency
    assert results["troxy"].p95 < results["bl"].p95


def test_troxy_single_reply_saves_client_bandwidth():
    downloads = {}
    for label, builder in (("bl", build_baseline), ("troxy", build_troxy)):
        cluster = builder(
            seed=173, app_factory=lambda: EchoService(reply_size=4096),
            wan=WAN_DELAY, client_nic=WAN_CLIENT_NIC,
        )
        machines = {m.node.name for m in cluster.machines}
        counted = {"rx": 0}
        original = cluster.net.send

        def counting(src, dst, payload, size=None, _c=counted, _m=machines, _o=original, **kw):
            if size is None:
                size = getattr(payload, "wire_size", 0)
            if dst in _m:
                _c["rx"] += size
            return _o(src, dst, payload, size, **kw)

        cluster.net.send = counting
        if label == "bl":
            clients = [cluster.new_client(request_distribution="all") for _ in range(8)]
        else:
            clients = [cluster.new_client() for _ in range(8)]
        loadgen = ClosedLoop(cluster.env, clients, read_source(), Collector())
        loadgen.start()
        cluster.env.run(until=3.0)
        downloads[label] = counted["rx"] / max(1, loadgen.stats.completed)
    # 2f+1 replies vs one: the legacy client downloads ~1/3 the bytes.
    assert downloads["bl"] > 2.2 * downloads["troxy"]
