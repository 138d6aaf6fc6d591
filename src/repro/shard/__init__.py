"""repro.shard — sharded multi-group Troxy (docs/SHARDING.md).

Partitions the keyspace across N independent Hybster agreement groups,
each with its own leader, trusted counters, batch assembler, and
fast-read cache, behind an enclave-resident :class:`ShardRouter` with a
consistent-hash ring — legacy clients still see one transparent
endpoint. :class:`ShardMigrator` moves ring slices between groups live
(freeze, fenced state transfer, counter re-certification, atomic ring
cut-over). A sharded deployment is assembled by
``repro.deploy.build_troxy(shards=N)``.
"""

from .ring import HashRing
from .router import RouteDecision, ShardRouter
from .migrate import MigrationReport, ShardMigrator, filter_kv_snapshot

# Alias kept for benchmarks/ledger/onepass.py, which may not be edited.
from ..deploy import build_troxy as build_sharded

__all__ = [
    "HashRing",
    "RouteDecision",
    "ShardRouter",
    "build_sharded",
    "MigrationReport",
    "ShardMigrator",
    "filter_kv_snapshot",
]
