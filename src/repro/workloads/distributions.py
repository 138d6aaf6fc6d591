"""Key-access distributions for workload generation.

Read-heavy Internet services rarely touch keys uniformly; cache
effectiveness (Fig. 8/9) and write contention (Fig. 10) both depend on
the access skew. Three standard shapes:

* :class:`UniformKeys` — every key equally likely.
* :class:`ZipfKeys` — classic power-law skew (precomputed CDF, O(log n)
  sampling; exponent ~0.99 matches common web traces).
* :class:`HotspotKeys` — a fraction of traffic pinned to a small hot set.
"""

from __future__ import annotations

import bisect


class KeyDistribution:
    """Maps random draws to key names."""

    def sample(self, rng) -> str:
        raise NotImplementedError


class UniformKeys(KeyDistribution):
    """Uniform over ``key_space`` keys."""

    def __init__(self, key_space: int, prefix: str = "k"):
        if key_space < 1:
            raise ValueError(f"key_space must be positive: {key_space}")
        self.key_space = key_space
        self.prefix = prefix

    def sample(self, rng) -> str:
        return f"{self.prefix}{rng.randrange(self.key_space)}"


class ZipfKeys(KeyDistribution):
    """Zipf-distributed keys: rank r is drawn with weight 1 / r^s."""

    def __init__(self, key_space: int, exponent: float = 0.99, prefix: str = "k"):
        if key_space < 1:
            raise ValueError(f"key_space must be positive: {key_space}")
        if exponent <= 0:
            raise ValueError(f"exponent must be positive: {exponent}")
        self.key_space = key_space
        self.exponent = exponent
        self.prefix = prefix
        cumulative = []
        total = 0.0
        for rank in range(1, key_space + 1):
            total += 1.0 / rank ** exponent
            cumulative.append(total)
        self._cdf = [value / total for value in cumulative]

    def sample(self, rng) -> str:
        index = bisect.bisect_left(self._cdf, rng.random())
        return f"{self.prefix}{min(index, self.key_space - 1)}"


class HotspotKeys(KeyDistribution):
    """``hot_fraction`` of accesses hit the first ``hot_keys`` keys."""

    def __init__(
        self,
        key_space: int,
        hot_keys: int = 1,
        hot_fraction: float = 0.9,
        prefix: str = "k",
    ):
        if not 0 < hot_keys <= key_space:
            raise ValueError(f"bad hot set: {hot_keys} of {key_space}")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"bad hot fraction: {hot_fraction}")
        self.key_space = key_space
        self.hot_keys = hot_keys
        self.hot_fraction = hot_fraction
        self.prefix = prefix

    def sample(self, rng) -> str:
        if rng.random() < self.hot_fraction:
            return f"{self.prefix}{rng.randrange(self.hot_keys)}"
        if self.hot_keys == self.key_space:
            return f"{self.prefix}{rng.randrange(self.hot_keys)}"
        return f"{self.prefix}{rng.randrange(self.hot_keys, self.key_space)}"
