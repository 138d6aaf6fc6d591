"""Latency/throughput collection and summarization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass(slots=True, init=False)
class Sample:
    """One completed operation."""

    completed_at: float
    latency: float
    ordered: bool = True
    read: bool = False
    conflict: bool = False
    retries: int = 0

    def __init__(
        self, completed_at, latency, ordered=True, read=False, conflict=False, retries=0
    ):
        self.completed_at = completed_at
        self.latency = latency
        self.ordered = ordered
        self.read = read
        self.conflict = conflict
        self.retries = retries


@dataclass(frozen=True)
class Summary:
    """Aggregated view of one measurement window."""

    count: int
    duration: float
    throughput: float  # operations per second
    mean_latency: float
    p50: float
    p95: float
    p99: float
    conflict_rate: float

    def __str__(self) -> str:
        return (
            f"{self.throughput:10.1f} op/s  "
            f"lat mean {self.mean_latency * 1000:8.3f} ms  "
            f"p50 {self.p50 * 1000:8.3f}  p95 {self.p95 * 1000:8.3f}  "
            f"conflicts {self.conflict_rate * 100:5.1f}%"
        )


def percentile(sorted_values: list[float], q: float) -> float:
    """q-th percentile (0..1) by linear interpolation; 0.0 on empty."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return sorted_values[low]
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


class Collector:
    """Accumulates samples; summarizes a half-open [start, end) window."""

    def __init__(self):
        self.samples: list[Sample] = []

    def record(
        self,
        completed_at: float,
        latency: float,
        ordered: bool = True,
        read: bool = False,
        conflict: bool = False,
        retries: int = 0,
    ) -> None:
        self.samples.append(
            Sample(completed_at, latency, ordered, read, conflict, retries)
        )

    def window(self, start: float, end: float) -> list[Sample]:
        """Samples completing in the half-open interval [start, end).

        Half-open so that adjacent windows partition the timeline: a
        sample landing exactly on a boundary belongs to exactly one
        window instead of being double-counted by both.
        """
        return [s for s in self.samples if start <= s.completed_at < end]

    def summarize(self, start: float, end: float) -> Summary:
        if end <= start:
            raise ValueError(f"empty window [{start}, {end}]")
        samples = self.window(start, end)
        duration = end - start
        if not samples:
            return Summary(0, duration, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        latencies = sorted(s.latency for s in samples)
        conflicts = sum(1 for s in samples if s.conflict)
        return Summary(
            count=len(samples),
            duration=duration,
            throughput=len(samples) / duration,
            mean_latency=sum(latencies) / len(latencies),
            p50=percentile(latencies, 0.50),
            p95=percentile(latencies, 0.95),
            p99=percentile(latencies, 0.99),
            conflict_rate=conflicts / len(samples),
        )
