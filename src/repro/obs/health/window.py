"""Sliding sim-time windows over closed spans and cluster state.

The health plane evaluates detectors and SLOs once per window. A
:class:`WindowSnapshot` is everything one evaluation sees: per-node
tallies of the spans that closed since the previous window boundary
plus a few sampled absolutes read straight off the cluster objects
(views, enclave reboot and cache-clear counts). Sampling is
read-only — no simulation events, no randomness — so the health plane
inherits the obs plane's non-perturbation guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NodeDelta:
    """One node's activity within one window."""

    node: str
    executes: int = 0
    fast_hits: int = 0
    fast_conflicts: int = 0
    fast_timeouts: int = 0
    switches: int = 0
    # Sampled absolutes (value at window end) and their window deltas.
    view: int = 0
    view_delta: int = 0
    reboots_delta: int = 0
    cache_clears_delta: int = 0

    @property
    def fast_attempts(self) -> int:
        return self.fast_hits + self.fast_conflicts + self.fast_timeouts


@dataclass
class WindowSnapshot:
    """Everything one health evaluation sees for [start, end)."""

    start: float
    end: float
    index: int
    #: Client-side progress (from root client.invoke spans).
    started: int = 0
    completed: int = 0
    retries: int = 0
    open_invokes: int = 0
    #: op_class ("read" / "write" / "all") -> latencies (seconds) of
    #: the invocations that completed inside this window.
    latency: dict = field(default_factory=dict)
    #: replica/host node name -> NodeDelta.
    per_node: dict = field(default_factory=dict)
    #: Sampled shard state (repro.shard); zero/false on unsharded cells.
    router_frozen: bool = False
    migrations_active: int = 0
    migrations_completed: int = 0

    def node(self, name: str) -> NodeDelta:
        delta = self.per_node.get(name)
        if delta is None:
            delta = self.per_node[name] = NodeDelta(node=name)
        return delta

    def observe_latency(self, op_class: str, value: float) -> None:
        self.latency.setdefault(op_class, []).append(value)
        self.latency.setdefault("all", []).append(value)

    def replica_nodes(self) -> list[str]:
        """Node names in sorted order (deterministic detector loops)."""
        return sorted(self.per_node)
