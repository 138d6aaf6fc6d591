"""Sharding: the tracked write-throughput ladder over group counts.

One fig6-style local-writes cell at a fixed client count, swept over
agreement-group counts (see ``docs/SHARDING.md``). The assertions pin
the acceptance property of the sharding work: with the per-group
machinery held fixed, adding groups multiplies aggregate write
throughput — at least 2.5x from one group to four under uniform keys,
even though most requests take the cross-group forwarding path. (The
one-group cell is the plain ``build_troxy`` deployment — no router is
built — so there is no separate "shards=1 is free" guard to run.)
"""

from repro.bench.experiments import sharding_throughput


def _by_x(points, figure):
    return {p.x: p for p in points if p.figure == figure}


def test_sharding_ladder(run_once):
    points = run_once(sharding_throughput)
    writes = _by_x(points, "sharding-writes")

    # Acceptance: >= 2.5x aggregate write throughput at four groups vs
    # one, uniform keys, same client count (docs/SHARDING.md).
    speedup = writes[4].throughput / writes[1].throughput
    assert speedup >= 2.5, f"4 shards vs 1 speedup {speedup:.2f}x < 2.5x"

    # The ladder is monotone while the per-group pipeline is the
    # bottleneck: every doubling of groups helps.
    assert writes[2].throughput > writes[1].throughput
    assert writes[4].throughput > writes[2].throughput
    assert writes[8].throughput > writes[4].throughput

    # Forwarding genuinely happens: at two groups about half the
    # requests land on a Troxy outside the owning group (the router
    # counts the second lookup at the owning group too, so the share
    # reads f/(1+f) for true forward fraction f).
    assert writes[1].extra["forwards"] == 0
    assert 0.2 <= writes[2].extra["forward_share"] <= 0.45
    assert writes[8].extra["forward_share"] > writes[4].extra["forward_share"]

    # The ring spreads the uniform keyspace over every group.
    for shards in (2, 4, 8):
        split = writes[shards].extra["ring_split"]
        assert len(split) == shards
        assert all(count > 0 for count in split.values()), split

