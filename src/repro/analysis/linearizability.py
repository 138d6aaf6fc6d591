"""Linearizability checking for register histories with unique writes.

Troxy's headline claim is that the fast-read cache preserves
linearizability. Tests, the chaos campaign and every figure cell of
``python -m repro.bench`` record each completed client operation and
hand the history to this checker.

Linearizability is local, so each key is checked on its own with the
zone check of Gibbons & Korach ("Testing Shared Memories", SIAM J.
Comput. 1997), which needs written values unique per key (a repeated
one raises :class:`ValueError`). A *cluster* is a write and the reads
that returned its value; the initial value is a virtual write at minus
infinity. A read of a value never written fails, and so does a read
that ends before its write starts. A cluster's *zone* runs from the
minimum end to the maximum start of its operations: *forward* when the
minimum end comes first, *backward* otherwise. The history is
linearizable iff no two forward zones overlap and no backward zone lies
inside a forward zone: one sort and one bisect per key.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

_INF = float("inf")

@dataclass(slots=True, init=False, unsafe_hash=True)
class OpRecord:
    """One completed client operation."""

    client: str
    kind: str  # "put" or "get"
    key: str
    value: object  # written value for put; observed value for get (None: initial)
    start: float
    end: float

    def __init__(self, client, kind, key, value, start, end):
        if kind not in ("put", "get"):
            raise ValueError(f"unsupported kind: {kind!r}")
        if end < start:
            raise ValueError("end before start")
        self.client = client
        self.kind = kind
        self.key = key
        self.value = value
        self.start = start
        self.end = end


def _show(record: OpRecord) -> str:
    return f"{record.client} {record.kind} [{record.start:.6f}, {record.end:.6f}]"


def _key_violation(key: str, records: list[OpRecord], initial) -> Optional[str]:
    """Why one key's history is not linearizable, or None."""
    writes = {initial: OpRecord("initial", "put", key, initial, -_INF, -_INF)}
    for record in records:
        if record.kind == "put":
            if record.value in writes:
                raise ValueError(f"value {record.value!r} written twice to key {key!r}")
            writes[record.value] = record
    # value -> [minimum end, maximum start] over the value's cluster
    bounds = {value: [write.end, write.start] for value, write in writes.items()}
    for op in records:  # a write is its own cluster's write: a no-op here
        write = writes.get(op.value)
        if write is None:
            return f"{_show(op)} returned {op.value!r}, which was never written"
        if op.end < write.start:
            return f"{_show(op)} returned {op.value!r} before {_show(write)} wrote it"
        cluster = bounds[op.value]
        cluster[0] = min(cluster[0], op.end)
        cluster[1] = max(cluster[1], op.start)
    forward, backward = [], []
    for value, (first_end, last_start) in bounds.items():
        if first_end < last_start:
            forward.append((first_end, last_start, value))
        else:
            backward.append((last_start, first_end, value))
    forward.sort(key=lambda zone: zone[0])
    for earlier, later in zip(forward, forward[1:]):
        if later[0] < earlier[1]:
            return _conflict(earlier, later)
    starts = [zone[0] for zone in forward]
    for zone in backward:
        # Forward zones are disjoint: only the last one starting before
        # this zone can contain it.
        index = bisect_left(starts, zone[0]) - 1
        if index >= 0 and zone[1] < forward[index][1]:
            return _conflict(forward[index], zone)
    return None


def _conflict(*zones: tuple) -> str:
    a, b = (f"{value!r} [{lo:.6f}, {hi:.6f}]" for lo, hi, value in zones)
    return f"the zones of {a} and {b} conflict"


def _first_violation(history: list[OpRecord], initial: dict) -> Optional[str]:
    by_key: dict[str, list[OpRecord]] = {}
    for record in history:
        by_key.setdefault(record.key, []).append(record)
    for key in sorted(by_key):
        reason = _key_violation(key, by_key[key], initial.get(key))
        if reason is not None:
            return f"history for key {key!r} is not linearizable: {reason}"
    return None


def check_linearizable(
    history: list[OpRecord], initial: Optional[dict[str, bytes]] = None
) -> bool:
    """Is this multi-key history linearizable w.r.t. a register per key?"""
    return _first_violation(history, initial or {}) is None


def find_violation(history: list[OpRecord]) -> Optional[str]:
    """Human-readable description of the first non-linearizable key."""
    return _first_violation(history, {})
