#!/usr/bin/env python3
"""The fast-read cache under a read-heavy workload, and the adaptive
total-order switch under write contention (Sections IV and VI-C3).

Phase 1: many clients read a small set of hot keys -> almost everything
is served by the f+1 cache quorum without ordering.
Phase 2: writers hammer the same keys -> conflicts spike, the conflict
monitor trips, and the Troxy falls back to ordered reads (bounded
worst case instead of pathological conflict retries).

Run:  python examples/read_heavy_cache.py
"""

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.troxy.monitor import ConflictMonitor


def main():
    cluster = build_troxy(
        seed=21,
        app_factory=KvStore,
        monitor_factory=lambda: ConflictMonitor(threshold=0.3, min_samples=16, window=32),
    )
    readers = [cluster.new_client(contact_index=0) for _ in range(6)]
    writer = cluster.new_client(contact_index=1)
    hot_keys = [f"item-{i}" for i in range(4)]

    def seed_data():
        for key in hot_keys:
            yield from writer.invoke(put(key, f"value of {key}".encode()))

    cluster.env.process(seed_data())
    cluster.env.run(until=10.0)

    def reader_loop(client, rounds):
        for i in range(rounds):
            yield from client.invoke(get(hot_keys[i % len(hot_keys)]))

    # Phase 1: read-heavy, no contention.
    for reader in readers:
        cluster.env.process(reader_loop(reader, 40))
    cluster.env.run(until=40.0)
    core = cluster.cores[0]
    print("phase 1 (read-heavy, no writes):")
    print(f"  fast-read hits      : {core.stats.fast_read_hits}")
    print(f"  ordered requests    : {core.stats.ordered_requests}")
    print(f"  conflict rate       : {core.monitor.conflict_rate * 100:.0f}%")
    print(f"  total-order mode    : {core.monitor.total_order_mode}")

    # Phase 2: writers create contention on the same keys.
    def writer_loop(rounds):
        for i in range(rounds):
            yield from writer.invoke(put(hot_keys[i % len(hot_keys)], b"changed"))

    cluster.env.process(writer_loop(120))
    for reader in readers:
        cluster.env.process(reader_loop(reader, 60))
    cluster.env.run(until=120.0)
    print("\nphase 2 (write contention on the hot keys):")
    print(f"  conflicts observed  : {core.monitor.stats.conflicts}")
    print(f"  switched to ordered : {core.monitor.stats.switches_to_total_order} time(s)")
    print(f"  total-order mode now: {core.monitor.total_order_mode}")
    print(f"  probes while latched: {core.monitor.stats.probes}")
    print("\nthe switch bounds the worst case: instead of repeatedly failing")
    print("cache quorums, contended reads are ordered like writes until the")
    print("monitor's probes see the conflicts subside.")


if __name__ == "__main__":
    main()
