"""Consistent-hash ring with virtual nodes (docs/SHARDING.md).

Every group owns ``vnodes`` tokens placed on a 64-bit ring by hashing
``salt | group | vnode``; a key belongs to the group assigned to the
first token at or after the key's own hash (wrapping around). Placement
is fully determined by ``(salt, groups, vnodes)`` — deployments derive
``salt`` from the simulation's :class:`~repro.sim.rng.RngTree`, so a
seed pins the whole keyspace layout.

Tokens have a permanent identity ``(group, vnode_index)`` separate from
their *assignment*: live migration re-assigns a set of tokens to a new
group without moving any token's position, so exactly the keys covered
by the moved tokens change owner and every other key stays put (the
minimal-remap property, pinned by ``tests/shard``).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Iterable, Optional

TokenId = tuple[str, int]  # (home group, vnode index) — permanent identity


def _hash64(data: str) -> int:
    return int.from_bytes(hashlib.sha256(data.encode()).digest()[:8], "big")


class HashRing:
    """Token ring mapping keys to group ids."""

    def __init__(self, groups: Iterable[str], vnodes: int = 64, salt: str = ""):
        groups = list(groups)
        if not groups:
            raise ValueError("a ring needs at least one group")
        if len(set(groups)) != len(groups):
            raise ValueError(f"duplicate group ids: {groups}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.vnodes = vnodes
        self.salt = salt
        #: token identity -> current owning group (identity == home at birth)
        self.assignment: dict[TokenId, str] = {}
        self._positions: list[tuple[int, TokenId]] = []
        for group in groups:
            self._place_group(group)
        self._sort()

    # -- construction ----------------------------------------------------------------

    def _place_group(self, group: str) -> None:
        for v in range(self.vnodes):
            token = (group, v)
            self.assignment[token] = group
            self._positions.append((self._token_position(token), token))

    def _token_position(self, token: TokenId) -> int:
        return _hash64(f"{self.salt}|{token[0]}|{token[1]}")

    def _sort(self) -> None:
        self._positions.sort()
        self._keys = [pos for pos, _token in self._positions]

    @property
    def groups(self) -> tuple[str, ...]:
        """Groups currently assigned at least one token (sorted)."""
        return tuple(sorted(set(self.assignment.values())))

    # -- lookup ----------------------------------------------------------------------

    def key_position(self, key: str) -> int:
        return _hash64(f"{self.salt}|key|{key}")

    def token_of_key(self, key: str) -> TokenId:
        """The successor token governing ``key``."""
        index = bisect.bisect_right(self._keys, self.key_position(key))
        if index == len(self._positions):
            index = 0  # wrap around
        return self._positions[index][1]

    def owner(self, key: str) -> str:
        return self.assignment[self.token_of_key(key)]

    # -- migration -------------------------------------------------------------------

    def plan_move(self, src: str, dst: str, fraction: float) -> tuple[TokenId, ...]:
        """Deterministically pick ~``fraction`` of ``src``'s tokens to
        hand to ``dst`` (lowest vnode indices first)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1]: {fraction}")
        owned = sorted(t for t, owner in self.assignment.items() if owner == src)
        if not owned:
            raise ValueError(f"group {src!r} owns no tokens")
        count = max(1, int(len(owned) * fraction))
        return tuple(owned[:count])

    def apply_move(self, tokens: Iterable[TokenId], dst: str) -> None:
        """Atomic cut-over: re-assign ``tokens`` to ``dst``.

        Callers must not yield between freeze-release and this call; in
        the simulation the whole reassignment happens at one instant,
        modelling an attested routing-table broadcast.
        """
        for token in tokens:
            if token not in self.assignment:
                raise ValueError(f"unknown token: {token}")
        for token in tokens:
            self.assignment[token] = dst

    def keys_moving(self, tokens: Iterable[TokenId]) -> Callable[[str], bool]:
        """Predicate: does ``key`` live under one of ``tokens``? Used as
        the migration freeze predicate."""
        moving = frozenset(tokens)
        return lambda key: self.token_of_key(key) in moving

    # -- diagnostics -----------------------------------------------------------------

    def load_split(self, keys: Iterable[str]) -> dict[str, int]:
        """How many of ``keys`` each group owns (balance diagnostics)."""
        split: dict[str, int] = {group: 0 for group in self.groups}
        for key in keys:
            split[self.owner(key)] += 1
        return split


def ring_from_rng(groups: Iterable[str], rng) -> HashRing:
    """Build a ring whose placement is pinned by a sim RNG stream."""
    return HashRing(groups, salt=str(rng.getrandbits(64)))
