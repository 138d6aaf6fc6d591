"""End-to-end determinism: an experiment point is exactly reproducible."""

import pytest

from repro.bench.experiments import _run_system, read_source, write_source


def test_same_seed_identical_summaries():
    def once():
        _, summary = _run_system(
            "etroxy", write_source(256), reply_size=10,
            n_clients=2, warmup=0.005, duration=0.01,
        )
        return summary

    a, b = once(), once()
    assert a.count == b.count
    assert a.throughput == b.throughput
    assert a.mean_latency == b.mean_latency
    assert a.p99 == b.p99


def test_different_seed_differs():
    def once(seed):
        _, summary = _run_system(
            "bl", read_source(), reply_size=256,
            n_clients=2, warmup=0.005, duration=0.01, seed=seed,
        )
        return summary

    a, b = once(1), once(2)
    # The LAN jitter differs by seed, so timing-derived numbers differ.
    assert a.mean_latency != b.mean_latency
