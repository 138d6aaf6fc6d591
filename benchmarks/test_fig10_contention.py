"""Fig. 10: concurrency handling — 1 % writes among reads.

Paper shape: under write contention, the baseline's optimistic read
quorum fails for ~50 % of reads, which must then be ordered a second
time — its read "optimization" ends up at roughly half of the
all-ordered reference throughput. Troxy's invalidation-driven cache is
conservative, so its conflict rate stays much lower (~14 %), and the
adaptive total-order switch guarantees the lower-bound performance.
"""

from repro.bench.experiments import fig10_write_contention


def by_system(points):
    return {p.system: p for p in points}


def test_fig10_write_contention(run_once):
    points = run_once(fig10_write_contention)
    systems = by_system(points)

    bl_opt = systems["bl-read-opt"]
    bl_ref = systems["bl-ordered"]
    troxy_fast = systems["troxy-fast-read"]
    troxy_adaptive = systems["troxy-adaptive"]
    troxy_ref = systems["troxy-ordered"]

    # Contention is visible: the baseline's optimistic quorums do fail
    # (our replicas execute with far less skew than the paper's Java
    # stack, so the absolute rate is lower than their ~50 %; see
    # EXPERIMENTS.md), and Troxy's cache observes invalidation churn.
    assert bl_opt.extra["conflict_rate"] > 0.01
    assert troxy_fast.extra["conflict_rate"] > 0.10

    # The paper's headline: under write contention the baseline's read
    # "optimization" stops paying — it lands at or below its own
    # all-ordered reference (their Fig. 10 shows it at half).
    assert bl_opt.throughput < bl_ref.throughput

    # Troxy's managed cache still beats the optimistic scheme here.
    assert troxy_fast.throughput > bl_opt.throughput

    # The adaptive switch guarantees the lower bound: within a whisker
    # of the all-ordered reference even while latched.
    assert troxy_adaptive.throughput >= 0.8 * troxy_ref.throughput
