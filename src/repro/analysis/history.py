"""Recording client histories for linearizability checking.

Wraps any client exposing ``invoke(op)`` so every completed operation is
appended to a shared history as an :class:`OpRecord`, ready for
:func:`repro.analysis.linearizability.check_linearizable`. Used by the
consistency tests, the chaos campaign and ``repro.bench``; exposed as a
library so downstream users can check their own workloads.
"""

from __future__ import annotations

from typing import Optional

from ..apps.base import Operation
from .linearizability import OpRecord, check_linearizable, find_violation

#: KvStore's encoding of "no such key"; recorded as None (empty register).
MISSING = b"\x00missing"


class HistoryRecorder:
    """Collects OpRecords from one or many wrapped clients."""

    def __init__(self, env, epsilon: float = 1e-6):
        self.env = env
        self.records: list[OpRecord] = []
        # Consecutive ops of one client get an epsilon gap so their
        # intervals are disjoint (touching intervals count as concurrent
        # under real-time precedence, which would weaken the check).
        # With epsilon 0 the recorder schedules nothing.
        self.epsilon = epsilon

    def wrap(self, client):
        """Return a drop-in replacement for ``client`` whose kv-style
        get/put operations are recorded."""
        return _RecordingClient(self, client)

    def check(self, initial: Optional[dict[str, bytes]] = None) -> bool:
        return check_linearizable(self.records, initial)

    def violation(self) -> Optional[str]:
        return find_violation(self.records)

    def invoked(self, op: Operation) -> None:
        """Called as each op is invoked, before it completes."""

    def to_record(self, client_id: str, op: Operation, outcome, start: float, end: float):
        """The register record of one completed kv-style op, or None."""
        if op.name == "put":
            return OpRecord(client_id, "put", op.key, op.body.content, start, end)
        if op.name == "get":
            value = outcome.result.content
            observed = None if value == MISSING else value
            return OpRecord(client_id, "get", op.key, observed, start, end)
        return None  # unsupported shape: not part of the register history


class _RecordingClient:
    """Proxy recording invoke() outcomes; other attributes pass through."""

    def __init__(self, recorder: HistoryRecorder, client):
        self._recorder = recorder
        self._client = client

    def __getattr__(self, name):
        return getattr(self._client, name)

    def invoke(self, op: Operation):
        recorder = self._recorder
        env = recorder.env
        start = env.now
        recorder.invoked(op)
        outcome = yield from self._client.invoke(op)
        client_id = getattr(self._client, "client_id", "client")
        record = recorder.to_record(client_id, op, outcome, start, env.now)
        if record is not None:
            recorder.records.append(record)
        if recorder.epsilon:
            yield env.timeout(recorder.epsilon)
        return outcome
