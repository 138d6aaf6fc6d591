"""The adaptive switch end-to-end: contention latches it, calm releases it."""

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.troxy.monitor import ConflictMonitor


def test_switch_latches_under_contention_and_recovers():
    # Pins the conflict-monitor probe path: a lease would serve reads
    # locally past the monitor (docs/READS.md).
    cluster = build_troxy(
        seed=141,
        app_factory=KvStore,
        leases="off",
        monitor_factory=lambda: ConflictMonitor(
            window=16, min_samples=8, threshold=0.4,
            probe_interval=2, recovery_successes=2,
        ),
    )
    core = cluster.cores[0]
    readers = [cluster.new_client(contact_index=0) for _ in range(4)]
    writer = cluster.new_client(contact_index=1)

    def seed():
        yield from writer.invoke(put("hot", b"v0"))

    cluster.env.process(seed())
    cluster.env.run(until=5.0)

    # Phase 1: heavy write contention on the hot key while reading.
    def contended_reader(client, rounds):
        for _ in range(rounds):
            yield from client.invoke(get("hot"))

    def contended_writer(rounds):
        for i in range(rounds):
            yield from writer.invoke(put("hot", f"v{i}".encode()))

    cluster.env.process(contended_writer(150))
    for reader in readers:
        cluster.env.process(contended_reader(reader, 60))
    cluster.env.run(until=60.0)
    assert core.monitor.stats.switches_to_total_order >= 1

    # Phase 2: writes stop; probes should release the switch eventually.
    for reader in readers:
        cluster.env.process(contended_reader(reader, 60))
    cluster.env.run(until=120.0)
    assert core.monitor.stats.probes >= 1
    assert not core.monitor.total_order_mode
    assert core.monitor.stats.switches_to_fast_read >= 1


def test_reads_stay_correct_across_mode_switches():
    cluster = build_troxy(
        seed=142,
        app_factory=KvStore,
        monitor_factory=lambda: ConflictMonitor(
            window=16, min_samples=8, threshold=0.3, probe_interval=4,
        ),
    )
    client = cluster.new_client(contact_index=0)
    writer = cluster.new_client(contact_index=1)
    observed = []

    def driver():
        for i in range(25):
            yield from writer.invoke(put("k", f"gen{i}".encode()))
            outcome = yield from client.invoke(get("k"))
            observed.append((i, outcome.result.content))

    cluster.env.process(driver())
    cluster.env.run(until=120.0)
    assert len(observed) == 25
    # Each read follows its write: it must observe exactly that value.
    for i, value in observed:
        assert value == f"gen{i}".encode()
