"""Property suite for the consistent-hash ring (docs/SHARDING.md).

Three properties carry the sharding design:

* **balance** — with 64 virtual nodes per group no group owns more than
  2x its fair share of a uniform keyspace (and never zero);
* **minimal remap** — a planned token move changes the owner of
  exactly the keys under the moved tokens; everything else stays put;
* **determinism** — placement is a pure function of (salt, groups,
  vnodes); rebuilding a ring from the same RNG seed reproduces every
  owner decision bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.ring import HashRing, ring_from_rng
from repro.sim.rng import RngTree

KEYS = [f"k{i}" for i in range(512)]

salts = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=0, max_size=12
)
group_counts = st.integers(min_value=2, max_value=8)


def _groups(count: int) -> list[str]:
    return [f"g{i}" for i in range(count)]


@given(salts, group_counts)
@settings(max_examples=60, deadline=None)
def test_ring_balance_bound(salt, count):
    ring = HashRing(_groups(count), vnodes=64, salt=salt)
    split = ring.load_split(KEYS)
    fair = len(KEYS) / count
    assert max(split.values()) <= 2.0 * fair, split
    assert min(split.values()) > 0, split


@given(salts, group_counts, st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_token_move_remaps_exactly_the_moved_slice(salt, count, fraction):
    ring = HashRing(_groups(count), vnodes=64, salt=salt)
    before = {key: ring.owner(key) for key in KEYS}
    tokens = ring.plan_move("g0", "g1", fraction)
    moving = ring.keys_moving(tokens)
    ring.apply_move(tokens, "g1")
    for key in KEYS:
        if moving(key):
            assert before[key] == "g0", key
            assert ring.owner(key) == "g1", key
        else:
            assert ring.owner(key) == before[key], key


@given(st.integers(min_value=0, max_value=2**32 - 1), group_counts)
@settings(max_examples=40, deadline=None)
def test_placement_is_deterministic_under_a_fixed_seed(seed, count):
    groups = _groups(count)
    one = ring_from_rng(groups, RngTree(seed).derive("shard", "ring"))
    two = ring_from_rng(groups, RngTree(seed).derive("shard", "ring"))
    assert one.salt == two.salt
    assert [one.owner(key) for key in KEYS] == [two.owner(key) for key in KEYS]
    # A different seed yields a different layout (statistically certain:
    # 512 keys over >= 2 groups agreeing everywhere is ~impossible).
    other = ring_from_rng(groups, RngTree(seed + 1).derive("shard", "ring"))
    if other.salt != one.salt:
        assert [one.owner(k) for k in KEYS] != [other.owner(k) for k in KEYS]


def test_membership_validation():
    import pytest

    with pytest.raises(ValueError):
        HashRing([])
    with pytest.raises(ValueError):
        HashRing(["g0", "g0"])
    ring = HashRing(["g0", "g1"], vnodes=8, salt="s")
    with pytest.raises(ValueError):
        ring.plan_move("g0", "g1", 0.0)
