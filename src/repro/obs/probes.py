"""ObsPlane: attach one registry + span recorder to a running cluster.

The plane wires itself in through hooks the layers already expose — the
optional ``obs`` attribute on :class:`~repro.sgx.enclave.Enclave`,
:class:`~repro.troxy.host.TroxyHost`, :class:`~repro.troxy.core.TroxyCore`
and :class:`~repro.hybster.replica.Replica`, the conflict monitor's
``switch_hooks``, and a network send filter. The instrumented modules
never import this package; they call duck-typed ``obs.*`` methods only
when a plane was attached, so the dependency points strictly upward.

Non-perturbation guarantee: the plane schedules **zero** simulation
events and consumes no randomness. Every probe runs synchronously
inside an already-executing process and only appends to plain-Python
metric/span state, so a run with an ObsPlane attached is event-for-event
identical to the same run without one.

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

from .registry import Registry
from .spans import Span, SpanRecorder, trace_key


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
    """One observability plane: a registry, a span recorder, probes."""

    def __init__(self, registry: Optional[Registry] = None,
                 spans: Optional[SpanRecorder] = None):
        self.registry = registry if registry is not None else Registry()
        # Not `spans or ...`: an empty recorder is falsy (__len__ == 0)
        # and a caller-supplied recorder must never be dropped.
        self.spans = spans if spans is not None else SpanRecorder()
        self.cluster = None
        self._env = None
        self._core_by_enclave: dict[int, object] = {}
        # (monitor, hook) pairs installed by attach(), so detach() can
        # remove exactly what it added.
        self._monitor_hooks: list[tuple[object, object]] = []
        # Trace currently being certified per node (set only while the
        # leader holds the order lock, so at most one per node).
        self._certify_trace: dict[str, str] = {}
        # The (leader's) order span per trace: execution on every replica
        # is parented here even though it runs on other nodes after the
        # order span closed.
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
        """Install probes on every layer of a built cluster.

        Works for any :class:`repro.deploy.Deployment`; parts a system
        lacks (no Troxy hosts on the baseline) are empty lists there.

        Idempotent: re-attaching to the cluster the plane is already on
        is a no-op (probes are installed exactly once); attaching to a
        *different* cluster while attached raises — call :meth:`detach`
        first, double-installed hooks would double-count every metric.
        """
        if self.cluster is cluster:
            return self
        if self.cluster is not None:
            raise RuntimeError(
                "ObsPlane is already attached to another cluster; detach() first"
            )
        self.cluster = cluster
        self._env = cluster.env
        for replica in cluster.replicas:
            replica.obs = self
            replica.boundary.obs = self
        for host in cluster.hosts:
            host.obs = self
            host.core.obs = self
            host.enclave.obs = self
            self._core_by_enclave[id(host.enclave)] = host.core
            hook = self._make_monitor_hook(host.replica_id)
            host.core.monitor.switch_hooks.append(hook)
            self._monitor_hooks.append((host.core.monitor, hook))
        cluster.net.add_send_filter(self._net_tap)
        return self

    def detach(self) -> "ObsPlane":
        """Remove every probe attach() installed.

        The cluster keeps running untouched afterwards; recorded
        metrics and spans stay readable on the plane. A detached plane
        can be re-attached (to the same or another cluster). Idempotent:
        detaching an unattached plane is a no-op, and hooks installed by
        one attach() are removed exactly once however often detach()
        runs.
        """
        cluster, self.cluster = self.cluster, None
        if cluster is None:
            return self
        for replica in cluster.replicas:
            replica.obs = None
            replica.boundary.obs = None
        for host in cluster.hosts:
            host.obs = None
            host.core.obs = None
            host.enclave.obs = None
        for monitor, hook in self._monitor_hooks:
            monitor.switch_hooks.remove(hook)
        self._monitor_hooks = []
        self._core_by_enclave = {}
        cluster.net.remove_send_filter(self._net_tap)
        self._env = None
        return self

    def wrap_clients(self, clients) -> list:
        """Wrap clients so each ``invoke`` opens the root span."""
        return [_ObservedClient(self, c) for c in clients]

    @property
    def now(self) -> float:
        return self._env.now if self._env is not None else 0.0

    # -- client ----------------------------------------------------------------

    def _observed_invoke(self, client, op):
        # The delegate assigns request ids sequentially at invoke start.
        request_id = getattr(client, "_request_id", 0) + 1
        trace = f"{client.client_id}#{request_id}"
        node = getattr(client, "node", None) or client.machine.node
        span = self.spans.begin(
            "client.invoke", self.now, trace_id=trace, node=node.name,
            client=client.client_id, op=op.name, read=op.is_read,
        )
        self._root_span[trace] = span
        self.registry.counter(
            "client_invocations_total", "Client operations started",
            node=node.name,
        ).inc()
        result = yield from client.invoke(op)
        self._root_span.pop(trace, None)
        self._end(span, retries=result.retries)
        self.registry.histogram(
            "client_latency_seconds", "End-to-end client latency",
            node=node.name,
        ).observe(result.latency)
        self.registry.quantile(
            "client_latency_quantile", "Streaming client-latency quantiles",
            node=node.name, op_class="read" if op.is_read else "write",
        ).observe(result.latency)
        return result

    # -- enclave boundary ---------------------------------------------------------

    def ecall_begin(self, enclave, name: str, args, bytes_in: int, bytes_out: int):
        traces = _vote_traces(args) or [self._ecall_trace(enclave, args)]
        self.registry.counter(
            "ecall_transitions_total", "Enclave boundary crossings",
            node=enclave.node.name, enclave=enclave.name, ecall=name,
        ).inc()
        # One span per request the crossing works for: more than one only
        # when it carries votes for several, all over the same interval.
        return tuple(
            self.spans.begin(
                f"enclave.ecall:{name}", self.now, trace_id=trace,
                node=enclave.node.name, enclave=enclave.name,
                bytes_in=bytes_in, bytes_out=bytes_out,
            )
            for trace in traces
        )

    def _ecall_trace(self, enclave, args) -> Optional[str]:
        """The one request an ecall that carries no votes works for."""
        for arg in args:
            trace = _maybe_trace(arg)
            if trace is not None:
                return trace
            nonce = getattr(arg, "nonce", None)  # CacheEntryReply
            if nonce is not None:
                core = self._core_by_enclave.get(id(enclave))
                request = core.probe_request(nonce) if core is not None else None
                if request is not None:
                    return trace_key(request)
        # Certify ecalls carry only (counter, value, digest); while
        # the leader certifies an ORDER we know whose request it is.
        return self._certify_trace.get(enclave.node.name)

    def ecall_end(self, spans: tuple) -> None:
        ended = [self._end(span) for span in spans]
        if not any(ended):
            return
        first = spans[0]
        self.registry.histogram(
            "ecall_seconds", "Sim-time spent inside one ecall",
            node=first.node, ecall=first.name.split(":", 1)[1],
        ).observe(first.duration)

    # -- troxy host -----------------------------------------------------------------

    def host_begin(self, host, payload, src: str):
        trace = _maybe_trace(payload)
        attrs = {"type": type(payload).__name__, "src": src}
        nonce = getattr(payload, "nonce", None)
        if trace is None and nonce is not None:
            request = host.core.probe_request(nonce)
            if request is not None:
                trace = trace_key(request)
            else:
                attrs["nonce"] = nonce
        self.registry.counter(
            "troxy_host_messages_total", "Messages pumped by the untrusted host",
            node=host.node.name, type=type(payload).__name__,
        ).inc()
        return self.spans.begin(
            "troxy.host", self.now, trace_id=trace, node=host.node.name, **attrs
        )

    def host_end(self, span: Span) -> None:
        self._end(span)

    # -- troxy core: fast reads & voting ------------------------------------------------

    def cache_begin(self, core, client_request):
        return self.spans.begin(
            "troxy.cache", self.now, trace_id=trace_key(client_request),
            node=core.node.name,
        )

    def cache_end(self, span: Span, outcome: str) -> None:
        if not self._end(span, outcome=outcome):
            return
        self.registry.counter(
            "cache_lookups_total", "Fast-read cache checks",
            node=span.node, outcome=outcome,
        ).inc()

    def fast_read_result(self, core, client_request, outcome: str) -> None:
        """Terminal fast-read verdict: hit, conflict, or timeout."""
        self.spans.event(
            "troxy.fast_read", self.now, trace_id=trace_key(client_request),
            node=core.node.name, outcome=outcome,
        )
        self.registry.counter(
            "fast_read_results_total", "Fast-read protocol outcomes",
            node=core.node.name, outcome=outcome,
        ).inc()

    def lease_result(self, core, client_request, outcome: str) -> None:
        """Lease read path verdict (docs/READS.md): ``hit`` (served
        locally under a valid lease) or ``cold`` (leased but no
        f+1-corroborated entry; ordered instead)."""
        self.spans.event(
            "troxy.lease_read", self.now, trace_id=trace_key(client_request),
            node=core.node.name, outcome=outcome,
        )
        self.registry.counter(
            "lease_read_results_total", "Lease read path outcomes",
            node=core.node.name, outcome=outcome,
        ).inc()

    def lease_install(self, core, grant, outcome: str) -> None:
        """A grant reached the holder's enclave: installed, expired,
        stale, or fenced by the sealed lease counter."""
        self.spans.event(
            "troxy.lease_install", self.now, trace_id=None,
            node=core.node.name, key=grant.key, outcome=outcome,
        )
        self.registry.counter(
            "lease_installs_total", "Lease grant install outcomes",
            node=core.node.name, outcome=outcome,
        ).inc()

    def lease_revoked(self, core, key: str) -> None:
        """The holder processed a revocation: lease dropped, epoch
        burned, key's cache entries invalidated."""
        self.spans.event(
            "troxy.lease_revoke", self.now, trace_id=None,
            node=core.node.name, key=key,
        )
        self.registry.counter(
            "lease_revocations_total", "Lease revocations processed",
            node=core.node.name,
        ).inc()

    def vote_begin(self, core, reply):
        return self.spans.begin(
            "troxy.vote", self.now, trace_id=_maybe_trace(reply),
            node=core.node.name, voter=reply.replica_id,
        )

    def vote_end(self, span: Span, outcome: str) -> None:
        if not self._end(span, outcome=outcome):
            return
        self.registry.counter(
            "votes_total", "Reply votes processed by the server-side voter",
            node=span.node, outcome=outcome,
        ).inc()

    # -- hybster ordering & execution ------------------------------------------------------

    def order_begin(self, replica, payload):
        requests = getattr(payload, "requests", None)  # Batch
        if requests is None:
            trace = _maybe_trace(payload)
            span = self.spans.begin(
                "hybster.order", self.now, trace_id=trace, node=replica.node.name,
            )
            if trace is not None:
                self._order_span[trace] = span
            return span
        # Batched slot: one order span *per member request* (all spanning
        # the same agreement round), so each trace's tree stays connected
        # and per-request ordering time stays attributable after batching
        # aggregated the agreement step. Members are parented to their
        # trace roots — no ancestor is open on the leader at order time.
        spans = []
        for request in requests:
            trace = _maybe_trace(request)
            span = self.spans.begin(
                "hybster.order", self.now, trace_id=trace,
                node=replica.node.name, batch=len(requests),
                parent=self._root_span.get(trace) if trace is not None else None,
            )
            if trace is not None:
                self._order_span[trace] = span
            spans.append(span)
        return tuple(spans)

    def order_end(self, span, seq: int) -> None:
        members = span if isinstance(span, tuple) else (span,)
        ended = False
        for member in members:
            ended = self._end(member, seq=seq) or ended
        if not ended:
            return
        # One slot per order round, however many member spans cover it.
        self.registry.counter(
            "orders_total", "Slots assigned by the leader",
            node=members[0].node,
        ).inc()

    def certify_scope(self, node_name: str, payload) -> None:
        """Leader is about to certify ``payload``'s slot on this node.

        For a batched slot the certification is attributed to the first
        request of the batch (one counter value covers all of them)."""
        requests = getattr(payload, "requests", None)  # Batch
        if requests is not None:
            payload = requests[0] if requests else None
        trace = _maybe_trace(payload) if payload is not None else None
        if trace is not None:
            self._certify_trace[node_name] = trace

    def certify_scope_end(self, node_name: str) -> None:
        self._certify_trace.pop(node_name, None)

    def batch_flush(self, replica, size: int, reason: str, depth: int) -> None:
        """Leader cut one batch: occupancy, flush reason, pipeline depth."""
        node = replica.node.name
        self.registry.counter(
            "batch_flushes_total", "Batches cut by the leader",
            node=node, reason=reason,
        ).inc()
        self.registry.histogram(
            "batch_occupancy", "Requests per cut batch", node=node,
        ).observe(size)
        self.registry.gauge(
            "batch_pipeline_depth", "Batches in flight after this flush",
            node=node,
        ).set(depth)

    # -- hybster batch queue ---------------------------------------------------------

    def queue_enter(self, replica, request) -> Optional[Span]:
        """Leader buffered ``request`` into the batch assembler."""
        trace = _maybe_trace(request)
        if trace is None:
            return None
        span = self.spans.begin(
            "hybster.queue", self.now, trace_id=trace, node=replica.node.name,
            parent=self._root_span.get(trace),
        )
        self._queue_span[trace] = span
        return span

    def queue_leave(self, replica, request, reason: str, size: int) -> None:
        """``request`` left the batch queue into a cut batch (``reason``
        is the flush trigger, ``size`` the batch it joined)."""
        trace = _maybe_trace(request)
        span = self._queue_span.pop(trace, None) if trace is not None else None
        if span is None or not self._end(span, reason=reason, batch=size):
            return
        self.registry.counter(
            "queue_requests_total", "Requests leaving the leader batch queue",
            node=span.node, reason=reason,
        ).inc()
        self.registry.histogram(
            "queue_wait_seconds", "Sim-time spent in the leader batch queue",
            node=span.node,
        ).observe(span.duration)

    def queue_drop(self, replica, request) -> None:
        """``request`` was drained unordered (view change / restart)."""
        self.queue_leave(replica, request, "dropped", 0)

    # -- shard forwarding hop -----------------------------------------------------------

    def forward_begin(self, core, request, target: str) -> Optional[Span]:
        """Fronting Troxy hands ``request`` to its owning group."""
        trace = _maybe_trace(request)
        if trace is None:
            return None
        span = self.spans.begin(
            "shard.forward", self.now, trace_id=trace, node=core.node.name,
            target=target,
        )
        self._forward_span[trace] = span
        self.registry.counter(
            "shard_forwards_total", "Requests forwarded to their owning group",
            node=core.node.name, target=target,
        ).inc()
        return span

    def forward_received(self, core, request) -> None:
        """The owning group accepted a forwarded request: the hop —
        transit plus remote host queueing — ends here; the owning
        group's handling continues inside its own ecall span."""
        trace = _maybe_trace(request)
        span = self._forward_span.pop(trace, None) if trace is not None else None
        if span is None or not self._end(span, received_by=core.node.name):
            return
        self.registry.histogram(
            "forward_hop_seconds", "Fronting-to-owning-group hop time",
            node=span.node,
        ).observe(span.duration)

    def order_committed(self, replica, request, seq: int) -> None:
        self.spans.event(
            "hybster.commit", self.now, trace_id=_maybe_trace(request),
            node=replica.node.name, seq=seq,
        )
        self.registry.counter(
            "commits_total", "Slots that reached commit quorum",
            node=replica.node.name,
        ).inc()

    def execute_begin(self, replica, request, seq: int):
        trace = _maybe_trace(request)
        parent = self._order_span.get(trace) if trace is not None else None
        if parent is not None:
            return self.spans.begin(
                "hybster.execute", self.now, trace_id=trace,
                node=replica.node.name, parent=parent, seq=seq,
            )
        return self.spans.begin(
            "hybster.execute", self.now, trace_id=trace,
            node=replica.node.name, seq=seq,
        )

    def execute_end(self, span: Span) -> None:
        if not self._end(span):
            return
        self.registry.counter(
            "executions_total", "Requests executed by the state machine",
            node=span.node,
        ).inc()

    # -- monitor & network -----------------------------------------------------------------

    def _make_monitor_hook(self, replica_id: str):
        def hook(mode: str) -> None:
            self.spans.event(
                "monitor.switch", self.now, node=replica_id, mode=mode
            )
            self.registry.counter(
                "monitor_mode_switches_total", "Adaptive total-order switches",
                node=replica_id, mode=mode,
            ).inc()

        return hook

    def _net_tap(self, attempt) -> None:
        labels = {
            "src": attempt.src,
            "dst": attempt.dst,
            "type": type(attempt.payload).__name__,
        }
        self.registry.counter(
            "net_messages_total", "Messages offered to the network", **labels
        ).inc()
        self.registry.counter(
            "net_bytes_total", "Payload bytes offered to the network", **labels
        ).inc(attempt.size)

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
        self.registry.gauge(
            "net_messages_sent", "Transfers accepted by the network"
        ).set(net.messages_sent)
        self.registry.gauge("net_bytes_sent").set(net.bytes_sent)
        env = self._env
        if env is not None:
            self.registry.gauge("sim_now_seconds", "Simulated clock").set(env.now)
            self.registry.gauge(
                "sim_events_scheduled", "Events ever pushed on the schedule"
            ).set(env.scheduled_events)
            self.registry.gauge(
                "sim_steps", "Scheduler steps processed"
            ).set(env.steps)

    def finalize(self) -> int:
        """End-of-run: close in-flight spans and snapshot all stats.

        Returns the number of spans that were still open (requests in
        flight when the simulation horizon was reached).
        """
        unfinished = self.spans.finish(self.now)
        self.registry.gauge(
            "spans_unfinished", "Spans still open at the end of the run"
        ).set(unfinished)
        self.snapshot()
        return unfinished

    # -- internal ---------------------------------------------------------------------------------

    def _end(self, span: Span, **attrs) -> bool:
        """Close a span idempotently.

        ``*_end`` probes sit in ``finally`` blocks, which also run when a
        half-finished process generator is torn down after the horizon —
        by then :meth:`finalize` already force-closed the span.
        """
        if span.end is not None:
            return False
        self.spans.end(span, self.now, **attrs)
        self.registry.histogram(
            "phase_seconds", "Sim-time per protocol phase (span name)",
            phase=span.name,
        ).observe(span.duration)
        return True
