"""ObsPlane: one registry + span recorder subscribed to a deployment's bus.

The layers report on their deployment's probe bus
(:mod:`repro.sim.probe`); they never import this package. The plane is
one subscriber of that bus: :data:`RULES` lists the event kinds it
consumes, how each becomes spans and which counter a span of each kind
feeds. A probe added at a site is one row here
(docs/OBSERVABILITY.md, "Probes").

Non-perturbation guarantee: the plane schedules **zero** simulation
events and consumes no randomness. It runs synchronously inside the
emitting process and only appends to plain-Python metric/span state, so
a run with an ObsPlane attached is event-for-event identical to the same
run without one.

Span taxonomy (one tree per request, trace id ``client#request_id``):

========================  =============================================
``client.invoke``          legacy/BFT client call, root of the tree
``troxy.host``             untrusted host handling one inbound message
``enclave.ecall:<name>``   one enclave boundary crossing (recorded once
                           per request whose replica votes it carries)
``troxy.cache``            fast-read cache check (Fig. 4 check_cache)
``troxy.fast_read``        instant event: hit / conflict / timeout
``hybster.queue``          leader batch-queue wait (enqueue -> take)
``hybster.order``          leader slot assignment + certification
``hybster.commit``         instant event: slot reached commit quorum
``hybster.execute``        state-machine execution of the request
``troxy.vote``             one reply vote at the convergence Troxy
``shard.forward``          forwarding hop to the owning group
``monitor.switch``         instant event: adaptive mode switch
========================  =============================================

Every span of a trace links (directly or transitively) to the trace's
``client.invoke`` root, so each trace is a connected tree — the
invariant :mod:`repro.obs.critpath` reconstructs causal chains from.
Spans that would otherwise dangle (batch-queue waits recorded on the
leader, per-request order spans of a batched slot) are parented to the
root explicitly.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..hybster.messages import NOOP_REQUEST_CLIENT
from .registry import Registry
from .spans import Span, SpanRecorder, trace_key


def _counts(metric: str, *labels: str, at: str = "close") -> tuple:
    """Feed: a counter of the spans of a kind, bumped as one opens/closes."""
    return (at, metric, labels)


#: Every bus kind the plane consumes -> (how, what its spans feed).
#:
#: How: ``None`` is the default rule: a ``begin`` opens one span named
#: after the kind, in the trace of its subject, an ``event`` records one
#: instant, and the keywords become the span's attrs. The other kinds
#: need correlation (whose trace, which parent, a span opened on one node
#: and closed on another) and name the method that does it.
#:
#: Feeds: the span's node is always a label, the named attrs are the
#: others. One crossing or order round may cover several spans (one per
#: request it works for); it feeds once, through the first.
RULES = {
    "enclave.ecall": ("_open_ecall", _counts(
        "ecall_transitions_total", "enclave", "ecall", at="open")),
    "troxy.host": ("_open_host", _counts("troxy_host_messages_total", "type", at="open")),
    "troxy.cache": (None, _counts("cache_lookups_total", "outcome")),
    "troxy.fast_read": (None, _counts("fast_read_results_total", "outcome")),
    "troxy.lease_read": (None, _counts("lease_read_results_total", "outcome")),
    "troxy.lease_install": (None, _counts("lease_installs_total", "outcome")),
    "troxy.lease_revoke": (None, _counts("lease_revocations_total")),
    "troxy.vote": (None, _counts("votes_total", "outcome")),
    "monitor.switch": (None, _counts("monitor_mode_switches_total", "mode")),
    "hybster.order": ("_open_order", _counts("orders_total")),
    "hybster.execute": ("_open_execute", _counts("executions_total")),
    "hybster.commit": ("_on_commit", _counts("commits_total")),
    "hybster.queue": ("_on_enqueue", _counts("queue_requests_total", "reason")),
    "shard.forward": ("_on_forward", _counts("shard_forwards_total", "target", at="open")),
    # No span of their own: they scope, close or count something else.
    "hybster.certify": ("_on_certify",),
    "hybster.certified": ("_on_certified",),
    "hybster.batch": ("_on_batch",),
    "hybster.queue_drop": ("_on_queue_drop",),
    "shard.received": ("_on_received",),
    "net.send": ("_on_send",),
}


def _maybe_trace(message) -> Optional[str]:
    """Trace id of anything carrying client_id/request_id, else None.

    Unwraps the common single-payload envelopes (``SecureEnvelope.body``,
    ``ForwardedRequest.request``, ``ShardFastReply.reply``,
    ``Tagged.msg``/``Forward.request``, ``Order.request``) so spans for
    wrapped protocol messages still join their request's trace tree.
    """
    for _ in range(3):
        if message is None:
            return None
        client_id = getattr(message, "client_id", None)
        request_id = getattr(message, "request_id", None)
        if client_id is not None and request_id is not None:
            return f"{client_id}#{request_id}"
        message = (
            getattr(message, "body", None)
            or getattr(message, "request", None)
            or getattr(message, "reply", None)
            or getattr(message, "msg", None)
        )
    return None


def _vote_traces(args) -> list:
    """Distinct trace ids, in first-seen order, of the replica votes an
    ecall carries: a ``Reply``, the members of a ``BatchedReply``, and
    the same inside a tuple of held vote messages (DESIGN.md D12). The
    crossing that decides a request is then part of that request's tree
    however many other requests' votes rode along. Empty for an ecall
    that carries no votes."""
    traces: dict[str, None] = {}
    for arg in args:
        for message in arg if type(arg) is tuple else (arg,):
            for vote in getattr(message, "replies", (message,)):
                if hasattr(vote, "replica_id"):
                    trace = _maybe_trace(vote)
                    if trace is not None:
                        traces[trace] = None
    return list(traces)


def _members(payload) -> tuple:
    """The requests of a slot's payload: a Batch's, or the one Request."""
    return getattr(payload, "requests", None) or (payload,)


def _label(span: Span, label: str):
    # An ecall's name is the suffix of its span's name, not an attr.
    return span.name.partition(":")[2] if label == "ecall" else span.attrs[label]


class _ObservedClient:
    """Transparent client proxy that records one span per invocation.

    Mirrors the ``_RecordingClient`` idiom from :mod:`repro.analysis.history`
    but adds no timeouts and schedules nothing: it only brackets the
    delegate's ``invoke`` generator with span/metric updates.
    """

    def __init__(self, plane: "ObsPlane", client):
        self._plane = plane
        self._client = client

    def __getattr__(self, name):
        return getattr(self._client, name)

    def invoke(self, op):
        return self._plane._observed_invoke(self._client, op)


class ObsPlane:
    """One observability plane: a registry and a span recorder fed from
    one deployment's probe bus (and from the clients it wraps)."""

    def __init__(self, registry: Optional[Registry] = None,
                 spans: Optional[SpanRecorder] = None):
        self.registry = registry if registry is not None else Registry()
        # Not `spans or ...`: an empty recorder is falsy (__len__ == 0)
        # and a caller-supplied recorder must never be dropped.
        self.spans = spans if spans is not None else SpanRecorder()
        self.cluster = None
        self._detached_at = 0.0
        self._handlers = {
            kind: getattr(self, rule[0]) for kind, rule in RULES.items() if rule[0] is not None
        }
        # (metric, label values) -> instrument. The registry checks names
        # and sorts labels on every get-or-create; per span that is most
        # of what observing costs, so each series is looked up there once.
        self._series: dict[tuple, object] = {}
        # node name -> TroxyCore: who knows which request a probe nonce
        # works for (the nonce is all a CacheEntryReply carries).
        self._cores: dict[str, object] = {}
        # Trace currently being certified per node (set only while the
        # leader holds the order lock, so at most one per node).
        self._certify_trace: dict[str, str] = {}
        # The (leader's) order span per trace: execution on every replica
        # is parented here even though it runs on other nodes after the
        # order span closed. Never pruned while attached: a lagging
        # replica may execute arbitrarily later.
        self._order_span: dict[str, Span] = {}
        # The root client.invoke span per in-flight trace: spans recorded
        # on nodes where no ancestor is open (batch-queue waits, batched
        # order members) are parented here to keep the tree connected.
        self._root_span: dict[str, Span] = {}
        # Open batch-queue span per trace (leader side).
        self._queue_span: dict[str, Span] = {}
        # Open forwarding-hop span per trace (fronting Troxy side).
        self._forward_span: dict[str, Span] = {}

    # -- attachment -----------------------------------------------------------

    def attach(self, cluster) -> "ObsPlane":
        """Subscribe to the probe bus of a built cluster.

        Works for any :class:`repro.deploy.Deployment`; parts a system
        lacks (no Troxy hosts on the baseline) are empty lists there.

        Idempotent: re-attaching to the cluster the plane is already on
        is a no-op; attaching to a *different* cluster while attached
        raises — call :meth:`detach` first, one plane's correlation
        state describes one deployment.
        """
        if self.cluster is cluster:
            return self
        if self.cluster is not None:
            raise RuntimeError(
                "ObsPlane is already attached to another cluster; detach() first"
            )
        self.cluster = cluster
        self._cores = {host.node.name: host.core for host in cluster.hosts}
        cluster.probe.subscribe(self)
        return self

    def detach(self) -> "ObsPlane":
        """Unsubscribe; the cluster keeps running untouched afterwards.

        Whatever was in flight is closed at the detach instant and
        marked ``unfinished``; nothing is recorded after it. Recorded
        metrics and spans stay readable, and the plane can be attached
        again (to the same or another cluster): what it knew about
        requests in flight is forgotten, so a later run that reuses
        client and request ids starts its own trees. Idempotent.
        """
        cluster, self.cluster = self.cluster, None
        if cluster is None:
            return self
        cluster.probe.unsubscribe(self)
        self._detached_at = cluster.env.now
        self.spans.finish(self._detached_at)
        for table in (self._cores, self._certify_trace, self._order_span,
                      self._root_span, self._queue_span, self._forward_span):
            table.clear()
        return self

    def wrap_clients(self, clients) -> list:
        """Wrap clients so each ``invoke`` opens the root span."""
        return [_ObservedClient(self, c) for c in clients]

    @property
    def now(self) -> float:
        """The deployment's clock; once detached, the detach instant."""
        return self._detached_at if self.cluster is None else self.cluster.env.now

    # -- bus subscriber: begin / end / event ----------------------------------------

    def begin(self, t: float, kind: str, node: str, subject, attrs: dict):
        """-> the spans the interval covers (its ``end`` state), or None."""
        if kind not in RULES:
            return None
        handler = self._handlers.get(kind)
        if handler is not None:
            spans = handler(t, node, subject, attrs)
        else:
            spans = (self.spans.begin(
                kind, t, trace_id=_maybe_trace(subject), node=node, **attrs
            ),)
        self._feed("open", spans[0])
        return spans

    def end(self, t: float, spans, attrs: dict) -> None:
        ended = False
        for span in spans:
            ended = self._close(span, t, attrs) or ended
        if ended:
            self._feed("close", spans[0])

    def event(self, t: float, kind: str, node: str, subject, attrs: dict) -> None:
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(t, node, subject, attrs)
        elif kind in RULES:
            self._instant(kind, t, node, subject, attrs)

    def _instant(self, kind: str, t: float, node: str, subject, attrs: dict) -> None:
        self._feed("close", self.spans.event(
            kind, t, trace_id=_maybe_trace(subject), node=node, **attrs
        ))

    def _close(self, span: Span, t: float, attrs: dict) -> bool:
        """Close a span idempotently.

        Sites end their tokens in ``finally`` blocks, which also run when
        a half-finished process generator is torn down after the horizon
        — by then :meth:`finalize` already force-closed the span.
        """
        if span.end is not None:
            return False
        self.spans.end(span, t, **attrs)
        return True

    def _counter(self, metric: str, **labels):
        key = (metric, *labels.values())
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self.registry.counter(metric, **labels)
        return series

    def _feed(self, when: str, span: Span) -> None:
        for at, metric, labels in RULES[span.name.partition(":")[0]][1:]:
            if at == when:
                values = {label: _label(span, label) for label in labels}
                self._counter(metric, node=span.node, **values).inc()

    # -- client ----------------------------------------------------------------

    def _observed_invoke(self, client, op):
        if self.cluster is None:  # detached: the wrapper is transparent
            return (yield from client.invoke(op))
        # The delegate assigns request ids sequentially at invoke start.
        request_id = getattr(client, "_request_id", 0) + 1
        trace = f"{client.client_id}#{request_id}"
        node = getattr(client, "node", None) or client.machine.node
        span = self.spans.begin(
            "client.invoke", self.now, trace_id=trace, node=node.name,
            client=client.client_id, op=op.name, read=op.is_read,
        )
        self._root_span[trace] = span
        self.registry.counter("client_invocations_total", node=node.name).inc()
        result = yield from client.invoke(op)
        if self._root_span.get(trace) is span:
            del self._root_span[trace]
        self._close(span, self.now, {"retries": result.retries})
        return result

    # -- kinds that need correlation: intervals ---------------------------------------

    def _open_ecall(self, t, node, args, attrs) -> tuple:
        """One span per request the crossing works for: more than one only
        when it carries votes for several, all over the same interval."""
        traces = _vote_traces(args) or [self._ecall_trace(node, args)]
        name = f"enclave.ecall:{attrs['ecall']}"
        return tuple(
            self.spans.begin(
                name, t, trace_id=trace, node=node, enclave=attrs["enclave"],
                bytes_in=attrs["bytes_in"], bytes_out=attrs["bytes_out"],
            )
            for trace in traces
        )

    def _ecall_trace(self, node: str, args) -> Optional[str]:
        """The one request an ecall that carries no votes works for."""
        for arg in args:
            trace = _maybe_trace(arg) or self._probe_trace(node, arg)
            if trace is not None:
                return trace
        # Certify ecalls carry only (counter, value, digest); while
        # the leader certifies an ORDER we know whose request it is.
        return self._certify_trace.get(node)

    def _probe_trace(self, node: str, message) -> Optional[str]:
        """Trace of the fast read a CacheEntryReply's nonce belongs to."""
        nonce = getattr(message, "nonce", None)
        core = self._cores.get(node)
        if nonce is None or core is None:
            return None
        request = core.probe_request(nonce)
        return None if request is None else trace_key(request)

    def _open_host(self, t, node, payload, attrs) -> tuple:
        trace = _maybe_trace(payload) or self._probe_trace(node, payload)
        nonce = getattr(payload, "nonce", None)
        if trace is None and nonce is not None:
            attrs = {**attrs, "nonce": nonce}
        return (self.spans.begin("troxy.host", t, trace_id=trace, node=node, **attrs),)

    def _open_order(self, t, node, payload, attrs) -> tuple:
        """One order span *per member request* of a batched slot (all
        spanning the same agreement round), so each trace's tree stays
        connected and per-request ordering time stays attributable after
        batching aggregated the agreement step. Members are parented to
        their trace roots — no ancestor is open on the leader at order
        time. An unbatched slot nests under what is open, as any span."""
        requests = getattr(payload, "requests", None)  # Batch
        spans = []
        for request in requests or (payload,):
            trace = _maybe_trace(request)
            if requests is None:
                span = self.spans.begin("hybster.order", t, trace_id=trace, node=node)
            else:
                span = self.spans.begin(
                    "hybster.order", t, trace_id=trace, node=node, batch=len(requests),
                    parent=self._root_span.get(trace),
                )
            if trace is not None:
                self._order_span[trace] = span
            spans.append(span)
        return tuple(spans)

    def _open_execute(self, t, node, request, attrs) -> tuple:
        trace = _maybe_trace(request)
        parent = self._order_span.get(trace)
        extra = {} if parent is None else {"parent": parent}
        return (self.spans.begin(
            "hybster.execute", t, trace_id=trace, node=node, **extra, **attrs
        ),)

    # -- kinds that need correlation: instants ----------------------------------------

    def _on_certify(self, _t, node, payload, _attrs) -> None:
        """The leader is about to certify ``payload``'s slot on ``node``.
        A batched slot's certification is attributed to its first request
        (one counter value covers all of them)."""
        trace = _maybe_trace(_members(payload)[0])
        if trace is not None:
            self._certify_trace[node] = trace

    def _on_certified(self, _t, node, _subject, _attrs) -> None:
        self._certify_trace.pop(node, None)

    def _on_commit(self, t, node, payload, attrs) -> None:
        for request in _members(payload):
            if request.client_id != NOOP_REQUEST_CLIENT:
                self._instant("hybster.commit", t, node, request, attrs)

    def _on_enqueue(self, t, node, request, _attrs) -> None:
        """Leader buffered ``request`` into the batch assembler."""
        trace = _maybe_trace(request)
        if trace is not None:
            self._queue_span[trace] = self.spans.begin(
                "hybster.queue", t, trace_id=trace, node=node,
                parent=self._root_span.get(trace),
            )

    def _leave_queue(self, t, requests, reason: str, size: int) -> None:
        for request in requests:
            span = self._queue_span.pop(_maybe_trace(request), None)
            if span is not None:
                self.end(t, (span,), {"reason": reason, "batch": size})

    def _on_batch(self, t, node, requests, attrs) -> None:
        """Leader cut one batch: its requests leave the queue; flush
        reason and pipeline depth are the batch's own metrics (its size
        is the ``batch`` attr of the queue spans it closes)."""
        reason = attrs["reason"]
        self._leave_queue(t, requests, reason, len(requests))
        self.registry.counter("batch_flushes_total", node=node, reason=reason).inc()
        self.registry.gauge("batch_pipeline_depth", node=node).set(attrs["depth"])

    def _on_queue_drop(self, t, _node, requests, _attrs) -> None:
        """Requests drained unordered (view change / restart)."""
        self._leave_queue(t, requests, "dropped", 0)

    def _on_forward(self, t, node, request, attrs) -> None:
        """Fronting Troxy hands ``request`` to its owning group."""
        trace = _maybe_trace(request)
        if trace is not None:
            span = self._forward_span[trace] = self.spans.begin(
                "shard.forward", t, trace_id=trace, node=node, **attrs
            )
            self._feed("open", span)

    def _on_received(self, t, node, request, _attrs) -> None:
        """The owning group accepted a forwarded request: the hop —
        transit plus remote host queueing — ends here; the owning
        group's handling continues inside its own ecall span."""
        span = self._forward_span.pop(_maybe_trace(request), None)
        if span is not None:
            self.end(t, (span,), {"received_by": node})

    def _on_send(self, _t, src, payload, attrs) -> None:
        """Offered traffic: counted before any send filter can drop it."""
        labels = {"src": src, "dst": attrs["dst"], "type": type(payload).__name__}
        self._counter("net_messages_total", **labels).inc()
        self._counter("net_bytes_total", **labels).inc(attrs["size"])

    # -- snapshots & lifecycle -----------------------------------------------------------------

    def _mirror(self, prefix: str, stats, **labels) -> None:
        """Copy every field of a stats dataclass into gauges."""
        for f in dataclasses.fields(stats):
            self.registry.gauge(f"{prefix}_{f.name}", **labels).set(
                getattr(stats, f.name)
            )

    def snapshot(self) -> None:
        """Mirror the layers' own stats counters into gauges.

        These gauges match ``EnclaveStats`` / ``MonitorStats`` / … by
        construction — they *are* those values at snapshot time — which
        is what ties the obs exports to the pre-existing counters.
        """
        cluster = self.cluster
        if cluster is None:
            return
        for replica in cluster.replicas:
            self._mirror("replica", replica.stats, node=replica.replica_id)
            self._mirror(
                "enclave", replica.boundary.stats,
                node=replica.replica_id, enclave=replica.boundary.name,
            )
        for host in cluster.hosts:
            node = host.replica_id
            self._mirror("troxy", host.core.stats, node=node)
            # Untrusted-side filter counters: votes_total{outcome="stale"}
            # near zero is explained by troxy_host_surplus_votes rising.
            self._mirror("troxy_host", host.stats, node=node)
            self._mirror("cache", host.core.cache.stats, node=node)
            self._mirror("monitor", host.core.monitor.stats, node=node)
            self._mirror(
                "enclave", host.enclave.stats, node=node, enclave=host.enclave.name
            )
            self.registry.gauge("monitor_total_order_mode", node=node).set(
                int(host.core.monitor.total_order_mode)
            )
        net = cluster.net
        self.registry.gauge("net_messages_sent").set(net.messages_sent)
        self.registry.gauge("net_bytes_sent").set(net.bytes_sent)
        env = cluster.env
        self.registry.gauge("sim_now_seconds").set(env.now)
        self.registry.gauge("sim_events_scheduled").set(env.scheduled_events)
        self.registry.gauge("sim_steps").set(env.steps)

    def finalize(self) -> int:
        """End-of-run: close in-flight spans and snapshot all stats.

        Returns the number of spans that were still open (requests in
        flight when the simulation horizon was reached).
        """
        unfinished = self.spans.finish(self.now)
        self.registry.gauge("spans_unfinished").set(unfinished)
        self.snapshot()
        return unfinished
