"""Cluster configuration for a Hybster deployment."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LeaseConfig:
    """Leader-granted read leases for the Troxy fast path (docs/READS.md).

    While a Troxy enclave holds a valid lease on a key, it serves reads
    for that key straight from its fast-read cache — no f+1 cache-digest
    vote round — because the group leader guarantees no write to the key
    commits before the lease is revoked (acknowledged) or has expired on
    the shared simulation clock. ``duration`` is the lifetime of one
    grant; ``renew_margin`` is how close to expiry a serving Troxy asks
    the leader for a fresh grant; ``request_backoff`` rate-limits lease
    requests per key so a cold or contended key does not flood the
    leader.

    The default configuration is *off*: no grants, no lease messages, no
    extra protocol state — the wire trace is byte-identical to a
    pre-lease deployment (tests/integration/test_lease_conformance.py
    pins this).
    """

    enabled: bool = False
    duration: float = 0.5
    renew_margin: float = 0.125
    request_backoff: float = 0.02

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not 0 < self.renew_margin < self.duration:
            raise ValueError(
                f"renew_margin must be in (0, duration), got {self.renew_margin}"
            )
        if self.request_backoff < 0:
            raise ValueError(
                f"request_backoff must be >= 0, got {self.request_backoff}"
            )

    @staticmethod
    def on(duration: float = 0.5) -> "LeaseConfig":
        return LeaseConfig(
            enabled=True,
            duration=duration,
            renew_margin=duration / 4,
            request_backoff=min(0.02, duration / 8),
        )


@dataclass(frozen=True)
class ClusterConfig:
    """Static membership and protocol parameters.

    Hybster's hybrid fault model tolerates ``f`` Byzantine replica faults
    with ``n = 2f + 1`` replicas (trusted counters rule out equivocation).
    """

    f: int = 1
    checkpoint_interval: int = 128
    request_timeout: float = 2.0  # client retransmission timeout
    progress_timeout: float = 1.0  # replica-side view-change trigger
    runtime: str = "java"  # protocol-processing cost profile
    #: Ordered-request batching and agreement pipelining
    #: (docs/BATCHING.md). Off is the paper's path: one request per
    #: ORDER/COMMIT round, no batch layer constructed. On is the one
    #: arrival-rate-driven policy of :mod:`repro.hybster.batching`.
    batching: bool = False
    leases: LeaseConfig = field(default_factory=LeaseConfig)
    #: Node-name prefix for this agreement group's replicas. The default
    #: (empty) keeps the historical ``replica-{i}`` names; sharded
    #: deployments (repro.shard) give every group beyond the first its
    #: own prefix (``g1-``, ``g2-``, ...) so groups share one network
    #: without name collisions while group 0 stays byte-compatible with
    #: the unsharded wire format.
    replica_prefix: str = ""

    def __post_init__(self):
        if self.f < 1:
            raise ValueError(f"f must be >= 1, got {self.f}")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be positive")

    @property
    def n(self) -> int:
        return 2 * self.f + 1

    @property
    def commit_quorum(self) -> int:
        """Replicas whose counter-certified COMMIT makes a slot durable."""
        return self.f + 1

    @property
    def reply_quorum(self) -> int:
        """Matching replies a voter needs to trust a result."""
        return self.f + 1

    @property
    def read_quorum(self) -> int:
        """Identical unordered-read replies the BL client optimization needs."""
        return self.f + 1

    @property
    def replica_ids(self) -> tuple[str, ...]:
        try:
            return self._replica_ids
        except AttributeError:
            cached = tuple(
                f"{self.replica_prefix}replica-{i}" for i in range(self.n)
            )
            object.__setattr__(self, "_replica_ids", cached)
            return cached

    def leader_of(self, view: int) -> str:
        return self.replica_ids[view % self.n]
