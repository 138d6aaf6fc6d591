"""Ablation — the paper's enclave-memory optimization (Section V-A).

"Accessing memory beyond the size of the EPC results in costly paging
... to avoid additional ocalls and paging, the Troxy can store data in
an encrypted manner outside the enclave [validated] against a hash
securely stored inside."

We shrink the EPC to make a hot cache of large replies spill, then
compare reads with the cache stored inside the enclave (paging) versus
outside (hash validation only).
"""

from repro.analysis.metrics import Collector
from repro.apps.echo import EchoService
from repro.deploy import build_troxy
from repro.bench.experiments import _scaled, read_source
from repro.bench.report import save_and_print
from repro.workloads.loadgen import ClosedLoop

REPLY_SIZE = 8192
HOT_KEYS = 512
TINY_EPC = 1 * 1024 * 1024  # 1 MB: 512 x 8 KB replies cannot fit


def run_variant(cache_outside: bool):
    cluster = build_troxy(
        seed=9,
        app_factory=lambda: EchoService(reply_size=REPLY_SIZE),
        cache_outside=cache_outside,
        epc_bytes=TINY_EPC,
        replica_cores=2,
    )
    clients = [cluster.new_client() for _ in range(_scaled(48, minimum=12))]
    loadgen = ClosedLoop(
        cluster.env, clients, read_source(key_space=HOT_KEYS), Collector()
    )
    loadgen.start()
    cluster.env.run(until=0.8)
    summary = loadgen.collector.summarize(0.3, 0.8)
    pages = sum(host.enclave.stats.pages_swapped for host in cluster.hosts)
    resident = max(host.enclave.resident_bytes for host in cluster.hosts)
    return summary.throughput, pages, resident


def run_ablation():
    return {
        "outside (hash inside)": run_variant(cache_outside=True),
        "inside (EPC paging)": run_variant(cache_outside=False),
    }


def test_ablation_epc_cache_placement(run_once):
    rows = run_once(run_ablation)
    lines = [
        "Ablation — cache placement vs a 1 MB EPC (8 KB replies, 512 hot keys)",
        "=" * 68,
    ]
    for name, (tput, pages, resident) in rows.items():
        lines.append(
            f"{name:24s} {tput:>10.0f} op/s   pages swapped {pages:>8d}   "
            f"enclave-resident {resident / 1024:.0f} KiB"
        )
    save_and_print("ablation_epc", "\n".join(lines))

    outside_tput, outside_pages, outside_resident = rows["outside (hash inside)"]
    inside_tput, inside_pages, inside_resident = rows["inside (EPC paging)"]

    # Storing full replies inside blows the EPC and pays paging...
    assert inside_resident > TINY_EPC
    assert inside_pages > 0
    # ...while the outside variant keeps the enclave footprint tiny...
    assert outside_resident < TINY_EPC
    assert outside_pages == 0
    # ...and is the faster configuration (the paper's design choice).
    assert outside_tput > inside_tput
