"""Live shard migration end to end (docs/SHARDING.md).

The protocol under test: freeze the moving slice, fence the source
group, collect f+1 matching snapshots, install the state through the
destination group's ordered path, re-certify the manifest on fresh
sealed counters, then cut the ring over atomically and retire the
moved keys at the source.
"""

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.shard.migrate import filter_kv_snapshot, manifest_digest
from tests.feature_sets import ALL_OFF, rerun_under_the_other_feature_sets


def _moving_keys(cluster, fraction=0.5, universe=96):
    tokens = cluster.ring.plan_move("g0", "g1", fraction)
    pred = cluster.ring.keys_moving(tokens)
    return [
        k for k in (f"k{i}" for i in range(universe))
        if cluster.ring.owner(k) == "g0" and pred(k)
    ]


def _seed_and_migrate(cluster, moving, extra_driver=None, until=90.0):
    """Write every moving key, then run one g0 -> g1 migration."""
    client = cluster.new_client()
    done = []

    def seed_then_move():
        for key in moving:
            yield from client.invoke(put(key, b"v:" + key.encode()))
        yield from cluster.migrator.migrate("g0", "g1", fraction=0.5)
        done.append(True)

    cluster.env.process(seed_then_move())
    if extra_driver is not None:
        cluster.env.process(extra_driver())
    cluster.env.run(until=until)
    assert done, "migration never finished"
    return cluster.migrator.reports[-1]


def test_migration_moves_state_and_retires_the_source(features=ALL_OFF):
    cluster = build_troxy(seed=21, shards=2, app_factory=KvStore, **features)
    moving = _moving_keys(cluster)
    assert moving, "seed 21 must hash some keys into the moving slice"

    report = _seed_and_migrate(cluster, moving)
    assert report.completed and not report.reason
    assert report.rounds >= 2  # stability requires two equal rounds
    assert report.moved_keys >= len(moving)
    assert report.certificates >= cluster.config.commit_quorum
    assert report.frozen_for > 0.0

    # The ring now routes every moved key to g1 ...
    for key in moving:
        assert cluster.ring.owner(key) == "g1", key
    # ... the destination replicas hold the values ...
    for replica in cluster.group("g1").replicas:
        for key in moving:
            assert replica.app._data.get(key) == b"v:" + key.encode(), key
    # ... and the source retired them.
    for replica in cluster.group("g0").replicas:
        for key in moving:
            assert key not in replica.app._data, key

    # Post-cut-over reads see the moved values through the normal path.
    client = cluster.new_client()
    reads = []

    def reader():
        for key in moving[:3]:
            outcome = yield from client.invoke(get(key))
            reads.append(outcome.result.content)

    cluster.env.process(reader())
    cluster.env.run(until=cluster.env.now + 30.0)
    assert reads == [b"v:" + key.encode() for key in moving[:3]]


def test_migration_survives_destination_leader_crash(features=ALL_OFF):
    cluster = build_troxy(seed=33, shards=2, app_factory=KvStore, **features)
    moving = _moving_keys(cluster)

    def crash_dst_leader():
        yield cluster.env.timeout(0.05)
        cluster.group("g1").replicas[0].stop()

    report = _seed_and_migrate(
        cluster, moving, extra_driver=crash_dst_leader, until=120.0
    )
    assert report.completed and not report.reason
    assert cluster.group("g1").leader.view > 0, "no view change happened"
    live = cluster.group("g1").replicas[1:]
    for replica in live:
        for key in moving:
            assert replica.app._data.get(key) == b"v:" + key.encode(), key
    # Certification still reached quorum with the leader dead (f+1 of
    # the surviving replicas' sealed counters).
    assert report.certificates >= cluster.config.commit_quorum


def test_writes_frozen_mid_migration_resolve_by_retry(features=ALL_OFF):
    cluster = build_troxy(seed=21, shards=2, app_factory=KvStore, **features)
    moving = _moving_keys(cluster)
    target = moving[0]
    writer_done = []

    def contending_writer():
        # Start mid-freeze: the write is dropped by the router and the
        # legacy client's retransmission loop carries it past cut-over.
        yield cluster.env.timeout(0.08)
        client = cluster.new_client(request_timeout=0.5)
        yield from client.invoke(put(target, b"late"))
        writer_done.append(True)

    report = _seed_and_migrate(cluster, moving, extra_driver=contending_writer)
    assert report.completed
    assert writer_done, "frozen write never completed"
    assert cluster.router.stats.frozen_rejects > 0
    assert not cluster.router.frozen
    # The late write landed in the key's post-migration home (g1).
    owner = cluster.ring.owner(target)
    assert owner == "g1"
    assert any(
        r.app._data.get(target) == b"late"
        for r in cluster.group(owner).replicas
    )


def test_filter_and_digest_helpers():
    from repro.apps.kvstore import encode_kv_records

    store = KvStore()
    for op in (put("a", b"1"), put("b", b"2"), put("__g1/pin", b"x")):
        store.execute(op)
    snapshot = store.snapshot()
    pairs = filter_kv_snapshot(snapshot, lambda key: key != "b")
    assert pairs == [("a", b"1")]  # pinned keys never migrate
    assert manifest_digest(pairs) == manifest_digest([("a", b"1")])
    assert manifest_digest(pairs) != manifest_digest([("a", b"2")])
    assert encode_kv_records(pairs)  # round-trips through the install op


def test_migrating_between_unknown_groups_fails_cleanly(features=ALL_OFF):
    cluster = build_troxy(seed=5, shards=2, app_factory=KvStore, **features)

    def bad():
        with pytest.raises(ValueError):
            yield from cluster.migrator.migrate("g0", "g9")
        with pytest.raises(ValueError):
            yield from cluster.migrator.migrate("g0", "g0")

    cluster.env.process(bad())
    cluster.env.run(until=5.0)
    assert not cluster.router.frozen


test_under_feature_set = rerun_under_the_other_feature_sets(globals())
