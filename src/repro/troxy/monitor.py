"""Conflict-rate monitoring and the adaptive total-order switch.

Section IV-B / VI-C3: the Troxy measures the fast-read miss/conflict
rate inside the enclave; when it exceeds a configurable threshold, the
Troxy "automatically switch[es] to the total-order mode where all
requests will be ordered", guaranteeing the lower-bound performance
under write contention or performance attacks. While in total-order
mode it keeps *sampling* the fast path to learn when conflicts subside.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..sim.probe import Probe


@dataclass
class MonitorStats:
    fast_successes: int = 0
    conflicts: int = 0
    misses: int = 0
    switches_to_total_order: int = 0
    switches_to_fast_read: int = 0
    probes: int = 0


class ConflictMonitor:
    """Sliding-window conflict-rate tracker with hysteresis."""

    def __init__(
        self,
        window: int = 64,
        threshold: float = 0.30,
        probe_interval: int = 32,
        recovery_successes: int = 8,
        min_samples: int = 16,
        count_misses: bool = False,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1]: {threshold}")
        if window < min_samples:
            raise ValueError("window must be >= min_samples")
        self.window = window
        self.threshold = threshold
        self.probe_interval = probe_interval
        self.recovery_successes = recovery_successes
        self.min_samples = min_samples
        self.count_misses = count_misses
        self.stats = MonitorStats()
        # A flip of the adaptive switch is reported as ``monitor.switch``;
        # the TroxyCore that owns the monitor says where and as whom.
        self.probe = Probe()
        self.node = ""
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = conflict
        self._total_order = False
        self._reads_since_probe = 0
        self._consecutive_probe_successes = 0

    def report_to(self, probe: Probe, node: str) -> None:
        self.probe, self.node = probe, node

    @property
    def total_order_mode(self) -> bool:
        return self._total_order

    def _switch(self, total_order: bool) -> None:
        self._total_order = total_order
        if self.probe.on:
            mode = "total_order" if total_order else "fast_read"
            self.probe.event("monitor.switch", self.node, mode=mode)

    @property
    def conflict_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def should_try_fast_read(self) -> bool:
        """Gate for the fast path: always in fast-read mode; only every
        ``probe_interval``-th read while in total-order mode."""
        if not self._total_order:
            return True
        self._reads_since_probe += 1
        if self._reads_since_probe >= self.probe_interval:
            self._reads_since_probe = 0
            self.stats.probes += 1
            return True
        return False

    def record_fast_success(self) -> None:
        self.stats.fast_successes += 1
        self._record(False)
        if self._total_order:
            self._consecutive_probe_successes += 1
            if self._consecutive_probe_successes >= self.recovery_successes:
                self.stats.switches_to_fast_read += 1
                self._outcomes.clear()
                self._switch(False)

    def record_conflict(self) -> None:
        """A fast read failed: remote mismatch or invalidated entry."""
        self.stats.conflicts += 1
        self._record(True)
        self._consecutive_probe_successes = 0

    def record_miss(self) -> None:
        """Cold miss: nothing cached. By default not counted against the
        threshold — a cold cache must not keep the switch latched. With
        ``count_misses`` the miss *is* sampled: under sustained write
        contention every read misses on a freshly invalidated entry, and
        the paper's monitor reacts to the combined miss/conflict rate
        (Section VI-C3)."""
        self.stats.misses += 1
        if self.count_misses:
            self._record(True)
            self._consecutive_probe_successes = 0

    def _record(self, conflict: bool) -> None:
        self._outcomes.append(conflict)
        if (
            not self._total_order
            and len(self._outcomes) >= self.min_samples
            and self.conflict_rate >= self.threshold
        ):
            self.stats.switches_to_total_order += 1
            self._reads_since_probe = 0
            self._consecutive_probe_successes = 0
            self._switch(True)
