"""The trace log: a human-readable line per protocol and network instant.

A :class:`Tracer` collects (time, category, node, detail) records. It is
a subscriber of the probe bus (:mod:`repro.sim.probe`): ``trace=True``
on a builder subscribes it, and :data:`RULES` says which event kinds it
logs, under which category and with which detail text. The Fig. 5
message-flow benchmark counts protocol phases in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    category: str
    node: str
    detail: str
    data: Any = None

    def __str__(self) -> str:
        return f"[{self.time * 1000:10.3f} ms] {self.category:<12} {self.node:<14} {self.detail}"


#: How a ``proto.send`` names what it carries: ``key=value`` unless listed.
_SEND_LABELS = {"lease": "lease key={}", "refetch": "refetch seq={}", "state": "state@{}"}


def _sent(msg, dst, **what) -> str:
    label = " ".join(_SEND_LABELS.get(k, k + "={}").format(v) for k, v in what.items())
    return f"{type(msg).__name__}->{dst} {label}"


#: event kind -> (category, detail(subject, **attrs)): one rule per line
#: of the log. Kinds without a rule (span opens, metrics-only facts) are
#: not logged.
RULES = {
    "proto.send": ("proto.send", _sent),
    "proto.reply": ("proto.send", lambda reply, dst: f"reply rid={reply.request_id} ->{dst}"),
    "hybster.commit": ("proto.commit", lambda _payload, seq: f"seq={seq}"),
    "proto.execute": ("proto.execute", lambda request, seq: (
        f"seq={seq} client={request.client_id} rid={request.request_id}")),
    "hybster.batch": ("proto.batch", lambda requests, reason, depth: (
        f"n={len(requests)} reason={reason} depth={depth}")),
    "proto.viewchange": ("proto.viewchange", lambda _s, view: f"view={view}"),
    "proto.newview": ("proto.newview", lambda _s, view, installed=False: (
        f"installed view={view}" if installed else f"view={view}")),
    "proto.statetransfer": ("proto.statetransfer", lambda _s, seq: f"installed state@{seq}"),
    "net.deliver": ("net.deliver", lambda msg: (
        f"{msg.src}->{msg.dst} {type(msg.payload).__name__} ({msg.size} B)")),
    "net.fault": ("net.fault", lambda _payload, dst, size: (
        f"->{dst} dropped by filter ({size} B)")),
}


class Tracer:
    """Collects the trace records it is given; it is given none unless
    it is subscribed."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def record(
        self, time: float, category: str, node: str, detail: str, data: Any = None
    ) -> None:
        self.records.append(TraceRecord(time, category, node, detail, data))

    # -- bus subscriber: instants only, what a span covers is not logged --------

    def event(self, t: float, kind: str, node: str, subject, attrs: dict) -> None:
        rule = RULES.get(kind)
        if rule is not None:
            category, detail = rule
            self.record(t, category, node, detail(subject, **attrs))

    # -- reading -------------------------------------------------------------

    def filter(
        self, category: Optional[str] = None, node: Optional[str] = None
    ) -> list[TraceRecord]:
        """Records matching the given category and/or node."""
        return [
            r
            for r in self.records
            if (category is None or r.category == category)
            and (node is None or r.node == node)
        ]

    def clear(self) -> None:
        self.records.clear()

    def dump(self, records: Optional[Iterable[TraceRecord]] = None) -> str:
        """Human-readable rendering of the (filtered) trace."""
        return "\n".join(str(r) for r in (records if records is not None else self.records))
