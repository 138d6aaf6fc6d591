"""Ablation D2 — why writes must invalidate *before* replying.

Break the invalidation (writes touch no cache keys) and replay a
write-then-read scenario: the fast-read quorum happily serves the stale
value, and the linearizability checker catches it. With invalidation
intact, the same scenario is clean — the mechanism is load-bearing,
not decorative.
"""

from repro.analysis.linearizability import check_linearizable
from repro.bench.experiments import ablation_invalidation


def test_ablation_write_invalidation():
    broken_history, intact_history, broken_stats, intact_stats = ablation_invalidation()

    broken_ok = check_linearizable(broken_history)
    intact_ok = check_linearizable(intact_history)

    # Broken invalidation serves the pre-write value from the cache...
    assert broken_history[-1].value == b"v1"
    assert not broken_ok  # ...which the checker correctly rejects.
    assert broken_stats.fast_read_hits >= 1  # the stale hit really was a fast read

    # The real system returns the new value and stays linearizable.
    assert intact_history[-1].value == b"v2"
    assert intact_ok
