"""Enclave-resident shard routing (docs/SHARDING.md).

Every Troxy enclave of a sharded deployment has a shard front
(:mod:`repro.shard.front`) holding a reference to the shared
:class:`ShardRouter`. On each authenticated request it asks the router
where the key lives:

* ``local`` — the key belongs to this core's own group: the request
  takes the unchanged Troxy path (fast read, ordering, voting).
* ``forward`` — the key belongs to another group: the core registers
  the voter state locally (it stays the reply convergence point and
  holds the only copy of the client's TLS session) and hands the host a
  Troxy-authenticated :class:`~repro.troxy.messages.ForwardedRequest`
  for a replica of the owning group: its current leader for an
  operation that will be ordered (so no in-group relay is needed), the
  same-index replica for a read that can be served from the group's
  fast-read caches or leases, and for everything while the core has no
  fresh evidence that the hinted leader is alive
  (:meth:`ShardFront._target`).
* ``frozen`` — the key sits in a ring slice currently being migrated
  and the operation is a write: dropped; the legacy client's
  timeout-and-retry loop resubmits it after the cut-over.

The router object is shared by all cores of a deployment; it models the
attested routing table every enclave holds a verified copy of, and
sharing it is what makes the migrator's ring cut-over atomic across the
cell. Routing itself is a hash plus a binary search — nanoseconds,
below the simulator's cost floor — so it charges no simulated CPU. A
single-group deployment has no router at all (:mod:`repro.deploy`).

Keys of the form ``__g{N}/...`` bypass the ring and pin to group
``g{N}``; the migrator uses such keys for its fence and state-install
operations (they never move, so they are never frozen), and tests and
benchmarks use them to direct traffic at a specific group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .ring import HashRing

PIN_PREFIX = "__g"


def pinned_group(key: str) -> Optional[str]:
    """``"__g{N}/..."`` -> ``"g{N}"``; None for ordinary keys."""
    if not key.startswith(PIN_PREFIX):
        return None
    head, sep, _rest = key.partition("/")
    if not sep:
        return None
    return head[2:]  # strip the "__"


@dataclass(slots=True, init=False, unsafe_hash=True)
class RouteDecision:
    """Outcome of one routing lookup.

    ``kind`` is "local", "forward", or "frozen"; ``group`` is the owning
    group id; ``target`` is the same-index replica of the owning group
    (empty unless forwarding) — where reads and suspicion fallbacks go;
    the core redirects ordered operations to
    :meth:`ShardRouter.leader_of` instead.
    """

    kind: str
    group: str = ""
    target: str = ""

    def __init__(self, kind, group="", target=""):
        self.kind = kind
        self.group = group
        self.target = target


@dataclass
class RouterStats:
    lookups: int = 0
    forwards: int = 0
    frozen_rejects: int = 0
    forwards_by_group: dict = field(default_factory=dict)


class ShardRouter:
    """Key -> group routing table shared by all Troxy cores of a cell."""

    def __init__(self, ring: HashRing, members: dict[str, tuple[str, ...]]):
        """``members`` maps group id -> that group's replica ids, index
        aligned across groups (same-index forwarding) and in the group's
        leader rotation order (``leader_of``)."""
        self.ring = ring
        self.members = {group: tuple(ids) for group, ids in members.items()}
        self._home: dict[str, tuple[str, int]] = {}
        for group, ids in self.members.items():
            for index, replica_id in enumerate(ids):
                self._home[replica_id] = (group, index)
        self.stats = RouterStats()
        #: active migration freeze: writes to matching keys are rejected
        self._frozen: Optional[Callable[[str], bool]] = None

    # -- membership ------------------------------------------------------------------

    def group_of_key(self, key: str) -> str:
        pinned = pinned_group(key)
        if pinned is not None:
            if pinned not in self.members:
                raise ValueError(f"key pinned to unknown group: {key!r}")
            return pinned
        return self.ring.owner(key)

    def group_of_replica(self, replica_id: str) -> Optional[str]:
        """The group ``replica_id`` is a replica of; None for a name
        outside every group (all groups share one key ring, so a valid
        tag alone does not place its sender)."""
        home = self._home.get(replica_id)
        return None if home is None else home[0]

    def leader_of(self, group: str, view: int) -> str:
        """The replica leading ``group`` in ``view`` (Hybster rotates the
        leader through the member list: ``ClusterConfig.leader_of``)."""
        ids = self.members[group]
        return ids[view % len(ids)]

    # -- migration freeze ------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen is not None

    def freeze(self, pred: Callable[[str], bool]) -> None:
        if self._frozen is not None:
            raise RuntimeError("a migration freeze is already active")
        self._frozen = pred

    def unfreeze(self) -> None:
        self._frozen = None

    def write_frozen(self, key: str) -> bool:
        """Whether a write to ``key`` is held back by an active migration
        freeze (pinned keys never move, so they are never frozen)."""
        if self._frozen is None or pinned_group(key) is not None:
            return False
        return self._frozen(key)

    # -- the routing decision ---------------------------------------------------------

    def route(self, op, replica_id: str) -> RouteDecision:
        """Route one operation as seen by ``replica_id``'s core."""
        self.stats.lookups += 1
        key = op.key
        if not op.is_read and self.write_frozen(key):
            self.stats.frozen_rejects += 1
            return RouteDecision("frozen")
        owner = self.group_of_key(key)
        group, index = self._home[replica_id]
        if owner == group:
            return RouteDecision("local", group=owner)
        self.stats.forwards += 1
        by_group = self.stats.forwards_by_group
        by_group[owner] = by_group.get(owner, 0) + 1
        target = self.members[owner][index % len(self.members[owner])]
        return RouteDecision("forward", group=owner, target=target)
