"""Streaming quantile sketch."""

import math
import random

import pytest

from repro.obs.quantiles import QuantileSketch


def test_empty_sketch():
    sk = QuantileSketch()
    assert sk.count == 0
    assert sk.sum == 0.0
    assert math.isnan(sk.quantile(0.5))


def test_small_stream_is_exact():
    sk = QuantileSketch()
    for v in (5.0, 1.0, 3.0, 2.0, 4.0):
        sk.observe(v)
    assert sk.count == 5
    assert sk.sum == 15.0
    assert sk.quantile(0.0) == 1.0
    assert sk.quantile(1.0) == 5.0
    assert sk.quantile(0.5) == 3.0


def test_rejects_nan():
    sk = QuantileSketch()
    with pytest.raises(ValueError):
        sk.observe(math.nan)


def test_quantile_argument_validation():
    sk = QuantileSketch()
    sk.observe(1.0)
    with pytest.raises(ValueError):
        sk.quantile(-0.1)
    with pytest.raises(ValueError):
        sk.quantile(1.1)


def test_large_stream_accuracy_and_bounded_size():
    rng = random.Random(7)
    values = [rng.random() for _ in range(20000)]
    sk = QuantileSketch(compression=64)
    for v in values:
        sk.observe(v)
    values.sort()
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        exact = values[min(int(q * len(values)), len(values) - 1)]
        assert sk.quantile(q) == pytest.approx(exact, abs=0.02)
    # Centroid count stays O(compression), not O(n): ~5x compression
    # at steady state for any stream length.
    assert sk.centroid_count() < 8 * sk.compression
    # Extremes are exact.
    assert sk.quantile(0.0) == values[0]
    assert sk.quantile(1.0) == values[-1]


def test_merge_matches_single_sketch():
    rng = random.Random(11)
    a, b, whole = QuantileSketch(), QuantileSketch(), QuantileSketch()
    for i in range(5000):
        v = rng.gauss(0.0, 1.0)
        (a if i % 2 else b).observe(v)
        whole.observe(v)
    merged = QuantileSketch()
    merged.merge(a)
    merged.merge(b)
    assert merged.count == whole.count
    assert merged.sum == pytest.approx(whole.sum)
    for q in (0.1, 0.5, 0.9):
        assert merged.quantile(q) == pytest.approx(whole.quantile(q), abs=0.1)
    # Merging never mutates the source.
    assert a.count == 2500


def test_merge_empty_is_noop():
    sk = QuantileSketch()
    sk.observe(2.0)
    sk.merge(QuantileSketch())
    assert sk.count == 1
    empty = QuantileSketch()
    empty.merge(sk)
    assert empty.quantile(0.5) == 2.0


def test_determinism_same_stream_same_bytes():
    def build():
        rng = random.Random(3)
        sk = QuantileSketch(compression=32)
        for _ in range(3000):
            sk.observe(rng.expovariate(1.0))
        return [sk.quantile(q) for q in (0.5, 0.9, 0.99)]

    assert build() == build()
