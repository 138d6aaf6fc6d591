"""Hierarchical sim-time spans.

A span is one timed phase of one request's journey through the stack
(``client.invoke``, ``troxy.host``, ``enclave.ecall:...``,
``hybster.order``, ``hybster.execute``, ``troxy.vote``,
``troxy.cache``). Spans carry a *trace id* — the request identity
``"<client_id>#<request_id>"`` — and a parent pointer, forming one tree
per request.

Parentage defaults to the innermost span of the same trace that is
still open when a child begins. The simulation is single-threaded and
deterministic, so this "open stack per trace" reconstructs the causal
nesting without any context-variable machinery; probes with better
knowledge (e.g. execution parented under the ordering span even though
the latter already closed) pass ``parent=`` explicitly.

Span ids are dense integers assigned in begin order; all timestamps are
simulated seconds. Nothing here consults the wall clock, so same-seed
runs record identical span tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Sentinel distinguishing "derive the parent from the open stack" from
#: an explicit ``parent=None`` (force a root span).
_FROM_STACK = object()


@dataclass
class Span:
    """One timed phase (or instant event, when ``end == start``)."""

    span_id: int
    name: str
    trace_id: Optional[str]
    node: str
    start: float
    parent_id: Optional[int] = None
    attrs: dict = field(default_factory=dict)
    end: Optional[float] = None
    kind: str = "span"  # "span" | "event"

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    @property
    def open(self) -> bool:
        return self.end is None


def trace_key(message) -> str:
    """Request identity of anything carrying client_id/request_id."""
    return f"{message.client_id}#{message.request_id}"


class SpanRecorder:
    """Collects spans, one tree per trace."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._open_by_trace: dict[str, list[Span]] = {}
        self._by_id: dict[int, Span] = {}
        #: Callables told of every span as it opens / closes (an instant
        #: event closes as it is recorded): how the health plane follows
        #: the recorder without wrapping it.
        self.opened: list = []
        self.closed: list = []

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording ---------------------------------------------------------

    def begin(
        self,
        name: str,
        t: float,
        trace_id: Optional[str] = None,
        node: str = "",
        parent=_FROM_STACK,
        **attrs,
    ) -> Span:
        """Open a span at sim-time ``t``; close it with :meth:`end`."""
        parent_id = self._resolve_parent(trace_id, parent, node)
        span = Span(
            span_id=next(self._ids),
            name=name,
            trace_id=trace_id,
            node=node,
            start=t,
            parent_id=parent_id,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._by_id[span.span_id] = span
        if trace_id is not None:
            self._open_by_trace.setdefault(trace_id, []).append(span)
        for listener in self.opened:
            listener(span)
        return span

    def end(self, span: Span, t: float, **attrs) -> Span:
        if span.end is not None:
            raise ValueError(f"span {span.span_id} ({span.name}) already ended")
        if t < span.start:
            raise ValueError(f"span {span.span_id} would end before it began")
        span.end = t
        span.attrs.update(attrs)
        if span.trace_id is not None:
            stack = self._open_by_trace.get(span.trace_id)
            if stack is not None:
                try:
                    stack.remove(span)
                except ValueError:
                    pass
                if not stack:
                    del self._open_by_trace[span.trace_id]
        for listener in self.closed:
            listener(span)
        return span

    def event(
        self,
        name: str,
        t: float,
        trace_id: Optional[str] = None,
        node: str = "",
        parent=_FROM_STACK,
        **attrs,
    ) -> Span:
        """Record an instant event (zero-duration leaf)."""
        parent_id = self._resolve_parent(trace_id, parent, node)
        span = Span(
            span_id=next(self._ids),
            name=name,
            trace_id=trace_id,
            node=node,
            start=t,
            parent_id=parent_id,
            attrs=dict(attrs),
            end=t,
            kind="event",
        )
        self.spans.append(span)
        self._by_id[span.span_id] = span
        for listener in self.closed:
            listener(span)
        return span

    def finish(self, t: float) -> int:
        """Close every still-open span (in-flight requests at shutdown).

        Closed spans are marked ``unfinished`` so analyses can exclude
        them; returns how many were force-closed.
        """
        closed = 0
        for span in self.spans:
            if span.end is None:
                self.end(span, max(t, span.start), unfinished=True)
                closed += 1
        return closed

    def _resolve_parent(
        self, trace_id: Optional[str], parent, node: str = ""
    ) -> Optional[int]:
        if parent is _FROM_STACK:
            if trace_id is None:
                return None
            stack = self._open_by_trace.get(trace_id)
            if not stack:
                return None
            # A trace can hold open spans on several nodes at once (all
            # replicas execute the same request); nest under the innermost
            # open span of the *same* node when one exists.
            for span in reversed(stack):
                if span.node == node:
                    return span.span_id
            return stack[-1].span_id
        if parent is None:
            return None
        return parent.span_id if isinstance(parent, Span) else int(parent)

    # -- queries ---------------------------------------------------------------

    @property
    def open_count(self) -> int:
        return sum(1 for span in self.spans if span.end is None)

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def trace(self, trace_id: str) -> list[Span]:
        """All spans of one request, in begin order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            if span.trace_id is not None:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self, trace_id: str) -> list[Span]:
        return [s for s in self.trace(trace_id) if s.parent_id is None]
