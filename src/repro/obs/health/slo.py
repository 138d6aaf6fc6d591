"""Declarative SLO specs evaluated over sliding sim-time windows.

An :class:`SloSpec` names one service-level objective of the paper's
evaluation (§V/§VI): a latency quantile ceiling per operation class, a
fast-read hit-rate floor (the Troxy's whole point is serving reads from
the enclave cache), or a progress guarantee (some request completes in
every window with work in flight). An :class:`SloTracker` evaluates one
spec per window, keeps cumulative compliance, and reports breaches as
:class:`~repro.obs.health.detectors.Finding`\\ s the plane turns into
``slo_violation`` health events.

A latency quantile is :func:`repro.analysis.metrics.percentile` over
the window's sorted latencies: a window holds a few hundred at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...analysis.metrics import percentile
from .detectors import Finding
from .window import WindowSnapshot

KINDS = ("latency_quantile", "hit_rate_floor", "progress")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective.

    ``latency_quantile``: quantile ``q`` of ``op_class`` latencies must
    stay <= ``limit`` seconds. ``hit_rate_floor``: resolved fast reads
    must hit at a rate >= ``limit``. ``progress``: at least ``limit``
    invocations must complete in any window that ends with requests
    still in flight.
    """

    name: str
    kind: str
    limit: float
    q: float = 0.99
    op_class: str = "all"
    min_samples: int = 8
    severity: str = "warn"
    description: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r} (known: {KINDS})")
        if self.kind == "latency_quantile" and not 0.0 < self.q < 1.0:
            raise ValueError(f"latency quantile must be in (0, 1): {self.q}")


class SloTracker:
    """Evaluates one spec per window; edge-triggered like detectors."""

    def __init__(self, spec: SloSpec):
        self.spec = spec
        self.windows_evaluated = 0
        self.windows_violated = 0
        self.worst: float = math.nan
        self._breached = False

    def evaluate(self, win: WindowSnapshot) -> Finding | None:
        spec = self.spec
        value = self._measure(win)
        if value is None:
            self._breached = False
            return None
        self.windows_evaluated += 1
        violated = self._violated(value)
        if violated:
            self.windows_violated += 1
            if math.isnan(self.worst) or self._worse(value, self.worst):
                self.worst = value
        fire = violated and not self._breached
        self._breached = violated
        if not fire:
            return None
        return Finding(
            kind="slo_violation", node="", severity=spec.severity,
            detail={
                "slo": spec.name,
                "kind": spec.kind,
                "value": round(value, 6),
                "limit": spec.limit,
            },
            metrics=((f"slo.{spec.name}.value", value),
                     (f"slo.{spec.name}.limit", spec.limit)),
        )

    # -- measurement -----------------------------------------------------------

    def _measure(self, win: WindowSnapshot) -> float | None:
        """The spec's measured value for this window; None = no data."""
        spec = self.spec
        if spec.kind == "latency_quantile":
            values = win.latency.get(spec.op_class, ())
            if not values or len(values) < spec.min_samples:
                return None
            return percentile(sorted(values), spec.q)
        if spec.kind == "hit_rate_floor":
            hits = sum(d.fast_hits for d in win.per_node.values())
            attempts = sum(d.fast_attempts for d in win.per_node.values())
            if attempts < spec.min_samples:
                return None
            return hits / attempts
        # progress: only meaningful when requests were in flight.
        if win.open_invokes <= 0 and win.completed == 0:
            return None
        return float(win.completed)

    def _violated(self, value: float) -> bool:
        if self.spec.kind == "latency_quantile":
            return value > self.spec.limit
        return value < self.spec.limit

    def _worse(self, a: float, b: float) -> bool:
        if self.spec.kind == "latency_quantile":
            return a > b
        return a < b

    def summary(self) -> dict:
        return {
            "slo": self.spec.name,
            "kind": self.spec.kind,
            "limit": self.spec.limit,
            "q": self.spec.q if self.spec.kind == "latency_quantile" else None,
            "op_class": self.spec.op_class,
            "windows_evaluated": self.windows_evaluated,
            "windows_violated": self.windows_violated,
            "worst": None if math.isnan(self.worst) else round(self.worst, 6),
            "compliant": self.windows_violated == 0,
        }


def default_slos() -> tuple[SloSpec, ...]:
    """Objectives calibrated against the healthy LAN chaos workload.

    Healthy-cell client latencies sit in the low milliseconds (reads)
    to ~10 ms (ordered writes under contention); the limits leave an
    order-of-magnitude margin so fault-free runs never breach while WAN
    delay bursts (+80 ms, §VI-C3) and crash stalls still trip them.
    ``min_samples`` is 2 for the latency objectives: a delay burst
    throttles the closed loop to a handful of completions per window
    (each hundreds of ms), so a high floor would mask exactly the
    windows that matter, while requiring two slow completions still
    keeps a lone outlier from paging.
    """
    return (
        SloSpec(
            name="read_latency_p99", kind="latency_quantile",
            limit=0.060, q=0.99, op_class="read", min_samples=2,
            description="p99 read latency ceiling (fast-read regime)",
        ),
        SloSpec(
            name="write_latency_p99", kind="latency_quantile",
            limit=0.100, q=0.99, op_class="write", min_samples=2,
            description="p99 ordered-write latency ceiling",
        ),
        SloSpec(
            name="fast_read_hit_rate", kind="hit_rate_floor",
            limit=0.5, min_samples=8,
            description="resolved fast reads must mostly hit",
        ),
        SloSpec(
            name="progress", kind="progress", limit=1.0,
            severity="critical",
            description="some request completes while work is in flight",
        ),
    )
