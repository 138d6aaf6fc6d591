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

from .tables import grid


def test_sharding_ladder():
    writes = {int(shards): cells for shards, cells in grid("sharding").items()}
    forward_share = {shards: cells["fwd share"] / 100 for shards, cells in writes.items()}

    # Acceptance: >= 2.5x aggregate write throughput at four groups vs
    # one, uniform keys, same client count (docs/SHARDING.md).
    speedup = writes[4]["op/s"] / writes[1]["op/s"]
    assert speedup >= 2.5, f"4 shards vs 1 speedup {speedup:.2f}x < 2.5x"

    # The ladder is monotone while the per-group pipeline is the
    # bottleneck: every doubling of groups helps.
    assert writes[2]["op/s"] > writes[1]["op/s"]
    assert writes[4]["op/s"] > writes[2]["op/s"]
    assert writes[8]["op/s"] > writes[4]["op/s"]

    # Forwarding genuinely happens: at two groups about half the
    # requests land on a Troxy outside the owning group (the router
    # counts the second lookup at the owning group too, so the share
    # reads f/(1+f) for true forward fraction f).
    assert forward_share[1] == 0
    assert 0.2 <= forward_share[2] <= 0.45
    assert forward_share[8] > forward_share[4]

    # The ring spreads the uniform keyspace over every group.
    for shards in (2, 4, 8):
        split = writes[shards]["ring split"]  # keys per group
        assert len(split) == shards
        assert all(count > 0 for count in split), split
