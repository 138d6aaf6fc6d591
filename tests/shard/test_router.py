"""Unit tests for the enclave-resident shard router (docs/SHARDING.md)."""

import pytest

from repro.apps.base import Operation, OpKind, Payload
from repro.shard.ring import HashRing
from repro.shard.router import RouteDecision, ShardRouter, pinned_group


def _read(key):
    return Operation(OpKind.READ, "get", key=key, body=Payload(b"r"))


def _write(key):
    return Operation(OpKind.WRITE, "put", key=key, body=Payload(b"w"))


def _router(groups=2, replicas=3, salt="test"):
    ring = HashRing([f"g{i}" for i in range(groups)], vnodes=32, salt=salt)
    members = {
        "g0": tuple(f"replica-{i}" for i in range(replicas)),
    }
    for g in range(1, groups):
        members[f"g{g}"] = tuple(
            f"g{g}-replica-{i}" for i in range(replicas)
        )
    return ShardRouter(ring, members)


def test_pinned_group_parsing():
    assert pinned_group("__g1/mig/fence") == "g1"
    assert pinned_group("__g0/x") == "g0"
    assert pinned_group("plain-key") is None
    assert pinned_group("__g1") is None  # no slash: not a pin
    assert pinned_group("k/__g1/x") is None


def test_local_and_forward_decisions_cover_the_keyspace():
    router = _router()
    for i in range(64):
        op = _write(f"k{i}")
        owner = router.ring.owner(op.key)
        seen_from_owner = router.route(op, router.members[owner][0])
        assert seen_from_owner.kind == "local"
        other = "g1" if owner == "g0" else "g0"
        decision = router.route(op, router.members[other][1])
        assert decision == RouteDecision(
            "forward", group=owner, target=router.members[owner][1]
        )
    assert router.stats.forwards == 64
    assert router.stats.lookups == 128


def test_decisions_name_the_same_index_replica_and_leaders_rotate():
    # The router resolves both candidates; which one a forward takes is
    # the core's call (tests/shard/test_forwarding.py).
    router = _router()
    key = next(k for k in (f"k{i}" for i in range(64))
               if router.ring.owner(k) == "g1")
    for index in range(3):
        for op in (_write(key), _read(key)):
            decision = router.route(op, f"replica-{index}")
            assert decision.target == f"g1-replica-{index}"
    assert [router.leader_of("g1", view) for view in range(5)] == [
        "g1-replica-0", "g1-replica-1", "g1-replica-2",
        "g1-replica-0", "g1-replica-1",
    ]
    assert router.leader_of("g0", 4) == "replica-1"


def test_pinned_keys_bypass_the_ring():
    router = _router()
    decision = router.route(_write("__g1/control"), "replica-0")
    assert decision.kind == "forward" and decision.group == "g1"
    assert router.route(_write("__g0/control"), "replica-0").kind == "local"
    with pytest.raises(ValueError):
        router.route(_write("__g9/unknown"), "replica-0")


def test_freeze_rejects_writes_but_never_reads_or_pins():
    router = _router()
    frozen_key = next(k for k in (f"k{i}" for i in range(64))
                      if router.ring.owner(k) == "g0")
    router.freeze(lambda key: key == frozen_key)
    assert router.route(_write(frozen_key), "replica-0").kind == "frozen"
    # Reads sail through a freeze: only writes could be lost mid-move.
    assert router.route(_read(frozen_key), "replica-0").kind == "local"
    # Pinned control keys are never frozen (the migrator depends on it).
    assert router.route(_write("__g0/fence"), "replica-0").kind == "local"
    # Other keys are unaffected.
    other = next(k for k in (f"k{i}" for i in range(64))
                 if k != frozen_key and router.ring.owner(k) == "g0")
    assert router.route(_write(other), "replica-0").kind == "local"
    assert router.stats.frozen_rejects == 1

    with pytest.raises(RuntimeError):
        router.freeze(lambda key: True)  # one migration at a time
    router.unfreeze()
    assert router.route(_write(frozen_key), "replica-0").kind == "local"


def test_single_group_router_never_forwards_or_rejects():
    router = _router(groups=1)
    for i in range(32):
        assert router.route(_write(f"k{i}"), "replica-0").kind == "local"
        assert router.route(_read(f"k{i}"), "replica-2").kind == "local"
    assert router.stats.forwards == 0
    assert router.stats.frozen_rejects == 0
