"""Replicated-application interface and common value types.

Every service replicated by Hybster (with or without Troxy) implements
:class:`Application`. Following the paper's fast-read assumptions
(Section IV-A), the interface lets the framework (1) distinguish read
from write requests *before* execution and (2) determine which part of
the state a request touches (``keys_accessed``) — both are required for
the managed cache.

Payloads carry real content bytes (so digests and votes are genuine)
plus a ``padded_size`` so benchmarks can model 4 KB replies without
materializing 4 KB of RAM per message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..crypto.primitives import digest_of, intern_digest


class OpKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class _Memo:
    """The interned digest, a slot set to ``None`` at construction and
    filled on first use; not a dataclass field, so ``==``, ``hash``,
    ``repr`` and ``replace`` ignore it."""

    __slots__ = ("_digest",)


@dataclass(slots=True, init=False, unsafe_hash=True)
class Payload(_Memo):
    """Message body: semantic content plus modelled wire size."""

    content: bytes
    padded_size: int = 0

    # Modelled on-the-wire size in bytes; precomputed at construction
    # because cost models read it on every hop of every message.
    size: int = field(init=False, compare=False, repr=False)

    def __init__(self, content, padded_size=0):
        if padded_size and padded_size < len(content):
            raise ValueError(
                f"padded_size {padded_size} smaller than content ({len(content)} bytes)"
            )
        self.content = content
        self.padded_size = padded_size
        self.size = padded_size or len(content)
        self._digest = None

    def digest(self) -> bytes:
        # Interned rather than per-instance: every replica materializes
        # its own Payload for the same reply content, and voters hash
        # all of them (see docs/PERFORMANCE.md).
        cached = self._digest
        if cached is None:
            cached = self._digest = intern_digest(self.content, self.size.to_bytes(8, "big"))
        return cached


EMPTY_PAYLOAD = Payload(b"", 0)


@dataclass(slots=True, init=False, unsafe_hash=True)
class Operation(_Memo):
    """One application-level command."""

    kind: OpKind
    name: str  # e.g. "get", "put", "echo"
    key: str = ""
    body: Payload = EMPTY_PAYLOAD
    size: int = field(init=False, compare=False, repr=False)
    is_read: bool = field(init=False, compare=False, repr=False)

    def __init__(self, kind, name, key="", body=EMPTY_PAYLOAD):
        self.kind = kind
        self.name = name
        self.key = key
        self.body = body
        self.size = len(name) + len(key) + body.size + 2
        self.is_read = kind is OpKind.READ
        self._digest = None

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            cached = self._digest = digest_of(
                self.kind.value.encode(), self.name.encode(), self.key.encode(),
                self.body.digest(),
            )
        return cached


class Application:
    """Deterministic state machine replicated by the BFT protocol."""

    def execute(self, op: Operation) -> Payload:
        """Apply ``op`` and return the reply payload. Must be deterministic."""
        raise NotImplementedError

    def execute_read(self, op: Operation) -> Payload:
        """Execute a read against current state without ordering it.

        Used by the PBFT-like read optimization. Default: same as execute
        (reads must not mutate state).
        """
        if not op.is_read:
            raise ValueError(f"execute_read on a write operation: {op}")
        return self.execute(op)

    def keys_accessed(self, op: Operation) -> tuple[str, ...]:
        """State partitions this operation reads or writes."""
        return (op.key,)

    def execution_cost(self, op: Operation) -> float:
        """Simulated CPU seconds to execute ``op``."""
        return 1.0e-6 + 0.1e-9 * op.body.size

    def snapshot(self) -> bytes:
        """Serialized state for checkpoints / state transfer."""
        raise NotImplementedError

    def restore(self, snapshot: bytes) -> None:
        raise NotImplementedError
