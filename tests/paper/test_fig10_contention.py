"""Fig. 10: concurrency handling — 1 % writes among reads.

Paper shape: under write contention, the baseline's optimistic read
quorum fails for ~50 % of reads, which must then be ordered a second
time — its read "optimization" ends up at roughly half of the
all-ordered reference throughput. Troxy's invalidation-driven cache is
conservative, so its conflict rate stays much lower (~14 %), and the
adaptive total-order switch guarantees the lower-bound performance.
"""

from typing import NamedTuple

from .tables import row


class Bar(NamedTuple):
    throughput: float
    conflict_rate: float


def bar(system: str) -> Bar:
    throughput, conflict_percent = row("fig10", system)
    return Bar(throughput, conflict_percent / 100)


def test_fig10_write_contention():
    bl_opt = bar("bl-read-opt")
    bl_ref = bar("bl-ordered")
    troxy_fast = bar("troxy-fast-read")
    troxy_adaptive = bar("troxy-adaptive")
    troxy_ref = bar("troxy-ordered")

    # Contention is visible: the baseline's optimistic quorums do fail
    # (our replicas execute with far less skew than the paper's Java
    # stack, so the absolute rate is lower than their ~50 %; see
    # EXPERIMENTS.md), and Troxy's cache observes invalidation churn.
    assert bl_opt.conflict_rate > 0.01
    assert troxy_fast.conflict_rate > 0.10

    # The paper's headline: under write contention the baseline's read
    # "optimization" stops paying — it lands at or below its own
    # all-ordered reference (their Fig. 10 shows it at half).
    assert bl_opt.throughput < bl_ref.throughput

    # Troxy's managed cache still beats the optimistic scheme here.
    assert troxy_fast.throughput > bl_opt.throughput

    # The adaptive switch guarantees the lower bound: within a whisker
    # of the all-ordered reference even while latched.
    assert troxy_adaptive.throughput >= 0.8 * troxy_ref.throughput
