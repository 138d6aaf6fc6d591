"""Deterministic mergeable streaming-quantile sketch.

A fixed-compression merging digest in the t-digest family: incoming
observations buffer up and are periodically merged into a bounded list
of ``(mean, weight)`` centroids, with per-centroid capacity scaled by
``q * (1 - q)`` so the tails stay fine-grained while the middle
compresses aggressively. Memory is O(compression) regardless of stream
length.

Two properties matter more than approximation error here:

- **Determinism** — no randomness, no wall clock; the centroid list is
  a pure function of the observation sequence (compression uses a
  stable sort keyed on centroid mean), so same-seed simulation runs
  print byte-identical critical-path and health-SLO quantiles.
- **Mergeability** — :meth:`merge` folds another sketch in by treating
  its centroids as weighted observations, which is exact for disjoint
  windows up to the usual digest error. Sliding-window SLO evaluation
  merges per-window sketches into run totals this way.

For streams shorter than the compression factor the sketch holds every
sample individually, so small-sample quantiles are exact.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["QuantileSketch"]


class QuantileSketch:
    """Fixed-compression merging digest over a stream of floats."""

    __slots__ = ("compression", "count", "sum", "_min", "_max",
                 "_centroids", "_buffer")

    def __init__(self, compression: int = 64):
        if compression < 8:
            raise ValueError(f"compression must be >= 8: {compression}")
        self.compression = compression
        self.count: float = 0.0
        self.sum: float = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._centroids: list[list[float]] = []  # [mean, weight], sorted
        self._buffer: list[list[float]] = []

    def __len__(self) -> int:
        return int(self.count)

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self._buffer.append([value, 1.0])
        self.count += 1.0
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._buffer) >= 4 * self.compression:
            self._compress()

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (``other`` is left untouched)."""
        for mean, weight in other._centroids:
            self._buffer.append([mean, weight])
        for mean, weight in other._buffer:
            self._buffer.append([mean, weight])
        self.count += other.count
        self.sum += other.sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compress()
        return self

    # -- queries ---------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q``; NaN for an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return math.nan
        self._compress()
        if q <= 0.0:
            return self._min
        if q >= 1.0:
            return self._max
        centroids = self._centroids
        if len(centroids) == 1:
            return centroids[0][0]
        target = q * self.count
        # Cumulative weight at each centroid's midpoint; linear
        # interpolation between adjacent midpoints (canonical digest
        # query), clamped to the exact min/max at the extremes.
        cum = 0.0
        prev_mid = 0.0
        prev_mean = self._min
        for mean, weight in centroids:
            mid = cum + weight / 2.0
            if target <= mid:
                span = mid - prev_mid
                if span <= 0.0:
                    return mean
                frac = (target - prev_mid) / span
                return prev_mean + (mean - prev_mean) * frac
            cum += weight
            prev_mid = mid
            prev_mean = mean
        span = self.count - prev_mid
        if span <= 0.0:
            return self._max
        frac = (target - prev_mid) / span
        return prev_mean + (self._max - prev_mean) * frac

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        return [self.quantile(q) for q in qs]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def centroid_count(self) -> int:
        self._compress()
        return len(self._centroids)

    # -- internals ----------------------------------------------------------------

    def _compress(self) -> None:
        if not self._buffer and len(self._centroids) <= self.compression:
            return
        points = self._centroids + self._buffer
        self._buffer = []
        if not points:
            self._centroids = []
            return
        # Stable sort on mean only: equal means merge anyway, so tie
        # order cannot leak into query results.
        points.sort(key=lambda c: c[0])
        total = sum(w for _, w in points)
        merged: list[list[float]] = []
        cur_mean, cur_weight = points[0]
        consumed = 0.0
        for mean, weight in points[1:]:
            mid_q = (consumed + cur_weight + weight / 2.0) / total
            limit = 4.0 * total * mid_q * (1.0 - mid_q) / self.compression
            if cur_weight + weight <= max(limit, 1.0):
                cur_mean += (mean - cur_mean) * (weight / (cur_weight + weight))
                cur_weight += weight
            else:
                merged.append([cur_mean, cur_weight])
                consumed += cur_weight
                cur_mean, cur_weight = mean, weight
        merged.append([cur_mean, cur_weight])
        self._centroids = merged
