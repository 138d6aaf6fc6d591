"""Ablation D1 — relocating the voter to the server side.

Measures what the client itself pays in each architecture: bytes on the
client's access link and TLS operations on the client's CPU, per
completed request. This is the paper's transparency dividend — the
reason low-bandwidth/mobile clients benefit (Section II-B) — made
directly visible.
"""

from repro.analysis.metrics import Collector
from repro.apps.echo import EchoService
from repro.deploy import WAN_DELAY, build_baseline, build_troxy
from repro.bench.experiments import WAN_CLIENT_NIC, read_source
from repro.bench.report import save_and_print
from repro.workloads.loadgen import ClosedLoop


def client_traffic(points_system: str, n_clients=24, reply_size=4096, duration=6.0):
    builder = build_baseline if points_system == "bl" else build_troxy
    cluster = builder(
        seed=5, app_factory=lambda: EchoService(reply_size=reply_size),
        wan=WAN_DELAY, client_nic=WAN_CLIENT_NIC,
    )
    if points_system == "bl":
        clients = [
            cluster.new_client(request_distribution="all") for _ in range(n_clients)
        ]
    else:
        clients = [cluster.new_client() for _ in range(n_clients)]
    machine_names = {m.node.name for m in cluster.machines}

    client_bytes = {"rx": 0, "tx": 0}
    original_send = cluster.net.send

    def counting_send(src, dst, payload, size=None, **kwargs):
        if size is None:
            size = getattr(payload, "wire_size", 0)
        if dst in machine_names:
            client_bytes["rx"] += size
        if src in machine_names:
            client_bytes["tx"] += size
        return original_send(src, dst, payload, size, **kwargs)

    cluster.net.send = counting_send
    loadgen = ClosedLoop(cluster.env, clients, read_source(), Collector())
    loadgen.start()
    cluster.env.run(until=duration)
    completed = max(1, loadgen.stats.completed)
    latency = loadgen.collector.summarize(0.0, duration).mean_latency
    return client_bytes["rx"] / completed, client_bytes["tx"] / completed, latency


def run_ablation():
    return {system: client_traffic(system) for system in ("bl", "troxy")}


def test_ablation_server_side_voter(run_once):
    rows = run_once(run_ablation)
    lines = [
        "Ablation D1 — client-side footprint per read (4 KB replies, WAN)",
        "=" * 64,
    ]
    for system, (rx, tx, latency) in rows.items():
        lines.append(
            f"{system:8s} client downloads {rx:>8.0f} B/req, uploads {tx:>6.0f} B/req, "
            f"latency {latency * 1000:7.1f} ms"
        )
    save_and_print("ablation_voter", "\n".join(lines))

    bl_rx, bl_tx, bl_latency = rows["bl"]
    troxy_rx, troxy_tx, troxy_latency = rows["troxy"]

    # The baseline client downloads ~2f+1 replies; the Troxy client one.
    assert bl_rx > 2.0 * troxy_rx, (bl_rx, troxy_rx)
    # And uploads the request to every replica instead of once.
    assert bl_tx > 2.0 * troxy_tx, (bl_tx, troxy_tx)
    # Waiting for the f+1-th delayed reply costs latency too.
    assert bl_latency > troxy_latency
