"""Workload side: legacy clients and load generators."""

from .distributions import (
    HotspotKeys,
    KeyDistribution,
    UniformKeys,
    ZipfKeys,
)
from .legacy import LegacyClient, LegacyClientStats
from .loadgen import ClosedLoop, LoadStats, PacedLoop, measure

__all__ = [
    "ClosedLoop",
    "HotspotKeys",
    "KeyDistribution",
    "LegacyClient",
    "LegacyClientStats",
    "LoadStats",
    "PacedLoop",
    "UniformKeys",
    "ZipfKeys",
    "measure",
]
