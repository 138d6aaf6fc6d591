"""The Hybster replica state machine.

One :class:`Replica` runs on one simulated node. Incoming messages are
handled by per-message processes (modelling Hybster's parallelized
message handling across cores) while two invariants are kept serial:

* ORDER intake is processed in sequence-number order under a lock, so
  each replica's commit counter advances monotonically (continuity);
* execution happens in a dedicated process, strictly in slot order.

The trusted counter subsystem is reached through the enclave boundary
(JNI in the original Hybster), so every certify/verify pays the
crossing cost in addition to the MAC itself.

Reply delivery is pluggable through ``reply_sink`` so the same replica
core serves both the baseline deployment (replies go straight to the
client over TLS) and the Troxy deployment (replies are handed to the
local Troxy for authentication, cache invalidation, and voting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..apps.base import Application, Operation, OpKind, Payload
from ..crypto.costs import RuntimeProfile, profile as cost_profile
from ..crypto.keys import KeyRing
from ..crypto.primitives import DIGEST_SIZE, digest_of
from ..crypto.tls import TlsEndpoint, TlsError
from ..sgx.counters import (
    CounterCertificate,
    CounterError,
    TrustedCounterSubsystem,
    certify_ledger_checkpoint,
)
from ..sgx.enclave import Enclave
from ..sim.engine import Environment, Process
from ..sim.network import Network, Node
from ..sim.resources import Resource, Store
from ..sim.trace import Tracer
from .batching import BatchAssembler
from .config import ClusterConfig
from .messages import (
    Batch,
    Checkpoint,
    Commit,
    FetchOrders,
    Forward,
    StateRequest,
    StateResponse,
    NewView,
    Order,
    Reply,
    Request,
    Tagged,
    ViewChange,
)
from .secure import SecureEnvelope, open_body, seal_body

NOOP_REQUEST_CLIENT = "__noop__"


def noop_request(seq: int, origin: str) -> Request:
    """Filler request used to close gaps during view changes."""
    op = Operation(OpKind.WRITE, "noop", key="__noop__")
    return Request(NOOP_REQUEST_CLIENT, seq, op, origin)


@dataclass
class LogEntry:
    """Per-slot ordering state."""

    order: Optional[Order] = None
    commit_senders: dict[str, CounterCertificate] = field(default_factory=dict)
    committed: bool = False
    executed: bool = False


@dataclass
class ReplicaStats:
    """Counters exposed for tests and benchmarks."""

    requests_submitted: int = 0
    orders_sent: int = 0
    commits_sent: int = 0
    executions: int = 0
    unordered_reads: int = 0
    view_changes: int = 0
    checkpoints_stable: int = 0
    state_transfers: int = 0
    invalid_messages: int = 0
    #: commits that arrived for a slot already committed or executed and
    #: were dropped after unmarshalling, unverified.
    surplus_commits: int = 0
    # Batching (leader side; all zero when batching is disabled).
    batches_sent: int = 0
    batched_requests: int = 0
    batch_flush_size: int = 0
    batch_flush_timeout: int = 0
    batch_flush_idle: int = 0
    batch_flush_drain: int = 0
    max_pipeline_depth: int = 0
    # Lease granting and write parking (leader side; docs/READS.md).
    # All zero when leases are disabled.
    lease_grants_attached: int = 0
    lease_writes_parked: int = 0
    lease_revokes_sent: int = 0
    lease_parked_released: int = 0
    lease_parked_dropped: int = 0


class Replica:
    """One Hybster replica (ordering + execution + reply routing)."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        node: Node,
        replica_id: str,
        config: ClusterConfig,
        app: Application,
        keyring: KeyRing,
        counters: TrustedCounterSubsystem,
        trusted_boundary: Enclave,
        tracer: Optional[Tracer] = None,
        owns_inbox: bool = True,
    ):
        self.env = env
        self.net = net
        self.node = node
        self.replica_id = replica_id
        self.config = config
        self.app = app
        self.keyring = keyring
        self.counters = counters
        self.boundary = trusted_boundary
        self.tracer = tracer or Tracer(enabled=False)
        self.profile: RuntimeProfile = cost_profile(config.runtime)
        self.stats = ReplicaStats()

        self.view = 0
        self.log: dict[int, LogEntry] = {}
        self.next_seq = 1  # leader: next slot to assign
        self.next_exec = 1
        self.stable_seq = 0
        self.stable_snapshot: bytes = app.snapshot()
        self._next_order_intake = 1  # continuity cursor for this view
        self._pending_orders: dict[int, Order] = {}
        self._order_lock = Resource(env, capacity=1)
        self._exec_signal = Store(env)
        self._last_reply: dict[str, Reply] = {}
        self._executed_requests: dict[str, int] = {}
        self._inflight: set[tuple[str, int]] = set()
        self._client_endpoints: dict[str, TlsEndpoint] = {}
        # TLS records of one client session must be opened in arrival
        # order; concurrent message handlers serialize per client.
        self._channel_locks: dict[str, Resource] = {}
        self._checkpoint_votes: dict[int, dict[str, bytes]] = {}
        self._state_offers: dict[tuple[int, bytes], set[str]] = {}
        self._view_changes: dict[int, dict[str, ViewChange]] = {}
        self._view_change_pending: Optional[int] = None
        self._progress_deadline: Optional[float] = None
        self._stopped = False
        # Count of log entries with an installed order that are not yet
        # executed; kept in sync by the order/execute/truncate paths so
        # _progress_made() is O(1) instead of scanning the log.
        self._unexec_ordered = 0
        # Leader-side batching (docs/BATCHING.md). With the default
        # BatchConfig the assembler is absent and submit() takes the
        # exact pre-batching ordering path.
        self._batcher = (
            BatchAssembler(config.batching) if config.batching.enabled else None
        )
        self._batch_signal = Store(env) if self._batcher is not None else None
        # Slots holding a batch this leader ordered but has not yet seen
        # committed; its size is the pipeline occupancy.
        self._inflight_batch_seqs: set[int] = set()
        self._batch_generation = 0

        # Hot-path constants: every message charges serialize/hash/MAC
        # costs, so the linear-model coefficients are pinned as locals of
        # the instance instead of chasing profile attributes per call.
        prof = self.profile
        self._ser_base = prof.serialize.base
        self._ser_per_byte = prof.serialize.per_byte
        self._hash_base = prof.hash.base
        self._hash_per_byte = prof.hash.per_byte
        self._mac_cost_const = prof.mac.cost(DIGEST_SIZE)
        self._peers = tuple(
            rid for rid in config.replica_ids if rid != replica_id
        )
        self._handle_name = f"{replica_id}:handle"

        # Counters used by this replica. "order/<view>" is created lazily
        # per view by whoever becomes leader; "commit/<view>" likewise.
        self.counters.create(self._commit_counter(0))
        if self.is_leader:
            self.counters.create(self._order_counter(0))

        self.reply_sink: Callable = self._default_reply_sink
        # Batched counterpart: receives the ordered (request, reply)
        # pairs of one executed batch in a single call, so a Troxy sink
        # can invalidate every written key before any reply in the batch
        # becomes visible (fast-read freshness across batch boundaries).
        self.batch_reply_sink: Callable = self._default_batch_reply_sink
        # Fault-injection hook: when set, every dispatched payload is
        # offered to the filter first; returning False swallows it
        # (models a mute/selectively-deaf replica without touching links).
        self.dispatch_filter: Optional[Callable[[object], bool]] = None
        # Optional observability plane (repro.obs): spans around
        # ordering and execution, commit events, certify attribution.
        self.obs = None
        # Lease-read support (docs/READS.md), wired by the Troxy build
        # when leases are enabled. Everything lease-shaped is injected
        # so this layer stays importable without repro.troxy.
        self.lease_manager = None  # leader-side granting/parking state
        self.lease_directory = None  # per-replica mirror of ordered grants
        self.lease_sink: Optional[Callable] = None  # executed grants -> enclave
        self.lease_revoke_sink: Optional[Callable] = None  # self-revoke shortcut
        self.lease_keys_fn: Callable[[Operation], tuple] = lambda op: (op.key,)
        self._lease_flush_armed = False

        # Trusted-subsystem entry points (three of Hybster's boundary
        # crossings); each certify pays the crossing plus one MAC.
        for ecall_name in ("certify_order", "certify_commit", "certify_viewchange"):
            trusted_boundary.register_ecall(ecall_name, self._trusted_certify)
        # Audit-ledger checkpoints (repro.obs.audit) cross the same
        # trusted boundary; the sealed audit-ledger counter fences
        # checkpoint numbers so a rewound ledger cannot be re-certified.
        trusted_boundary.register_ecall("certify_ledger", self._certify_ledger)

        self._owns_inbox = owns_inbox
        self._loop_generation = 0
        if owns_inbox:
            env.process(self._message_loop(0), name=f"{replica_id}:loop")
        env.process(self._execution_loop(), name=f"{replica_id}:exec")
        env.process(self._progress_monitor(), name=f"{replica_id}:monitor")
        if self._batcher is not None:
            env.process(self._batch_loop(0), name=f"{replica_id}:batcher")

    # -- identity helpers ------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.config.leader_of(self.view) == self.replica_id

    @property
    def leader_id(self) -> str:
        return self.config.leader_of(self.view)

    def _order_counter(self, view: int) -> str:
        return f"order/{view}"

    def _commit_counter(self, view: int) -> str:
        return f"commit/{view}"

    def _ensure_counter(self, name: str) -> None:
        try:
            self.counters.create(name)
        except CounterError:
            pass

    # -- cost helpers -----------------------------------------------------------

    def _rx_cost(self, size: int) -> float:
        """Deserialize + digest an incoming protocol message."""
        return (self._ser_base + self._ser_per_byte * size) + (
            self._hash_base + self._hash_per_byte * size
        )

    def _tx_cost(self, size: int) -> float:
        return self._ser_base + self._ser_per_byte * size

    def _mac_cost(self) -> float:
        """Verify/create one MAC over a fixed-size digest."""
        return self._mac_cost_const

    def _trusted_certify(self, counter: str, value: int, digest: bytes):
        """Trusted-side body of the certify ecalls."""
        yield from self.node.compute(self._mac_cost_const)
        return self.counters.certify_at(counter, value, digest)

    def _certify_ledger(self, seq: int, head: bytes):
        """Trusted-side body of the certify_ledger ecall."""
        yield from self.node.compute(self._mac_cost_const)
        return certify_ledger_checkpoint(self.counters, seq, head)

    # -- secure client channels (baseline deployment) ----------------------------

    def register_client_channel(self, client_id: str, endpoint: TlsEndpoint) -> None:
        """Install the server-side TLS endpoint for ``client_id``."""
        self._client_endpoints[client_id] = endpoint

    # -- outbound -----------------------------------------------------------------

    def _send(self, dst: str, msg, trace: str = "") -> None:
        if self.tracer.enabled:
            self.tracer.record(self.env.now, "proto.send", self.replica_id,
                               f"{type(msg).__name__}->{dst} {trace}")
        self.net.send(self.node.name, dst, msg)

    def _broadcast(self, msg, trace: str = "") -> None:
        for rid in self._peers:
            self._send(rid, msg, trace)

    def _request_trace(self, request: Request) -> str:
        """Per-request trace label for relayed/forwarded requests, so a
        request stays attributable in the trace once batching aggregates
        the downstream ordering records."""
        if not self.tracer.enabled:
            return ""
        return f"client={request.client_id} rid={request.request_id}"

    def _tagged(self, msg) -> Tagged:
        """Wrap with a troxy-group HMAC tag (checkpoint-class messages)."""
        key = self.keyring.troxy_instance(self.replica_id)
        return Tagged(msg, self.replica_id, key.sign(msg.auth_bytes()))

    def _verify_tagged(self, tagged: Tagged) -> bool:
        key = self.keyring.troxy_instance(tagged.sender)
        return key.verify(tagged.msg.auth_bytes(), tagged.tag)  # type: ignore[attr-defined]

    # -- main loops ------------------------------------------------------------------

    def stop(self) -> None:
        """Take the replica out of service (crash, for fault injection)."""
        self._stopped = True
        self.node.crash()

    def _message_loop(self, generation: int):
        while not self._stopped:
            msg = yield self.node.inbox.get()
            if generation != self._loop_generation:
                # A restart spawned a fresh loop; hand over after
                # dispatching the message this stale loop consumed.
                if not self._stopped:
                    self.dispatch(msg.payload)
                return
            if self._stopped:
                return
            self.dispatch(msg.payload)

    def dispatch(self, payload) -> None:
        """Handle one protocol message in its own process.

        Public so a Troxy host owning the node's inbox can hand protocol
        traffic to the co-located replica.
        """
        if self._stopped:
            return
        if self.dispatch_filter is not None and not self.dispatch_filter(payload):
            return
        Process(self.env, self._handle(payload), name=self._handle_name)

    def _handle(self, payload):
        if isinstance(payload, SecureEnvelope):
            yield from self._handle_client_envelope(payload)
        elif isinstance(payload, Order):
            yield from self._handle_order(payload)
        elif isinstance(payload, Commit):
            yield from self._handle_commit(payload)
        elif isinstance(payload, Tagged) and isinstance(payload.msg, Forward):
            yield from self._handle_forward(payload)
        elif isinstance(payload, Tagged) and isinstance(payload.msg, Checkpoint):
            yield from self._handle_checkpoint(payload)
        elif isinstance(payload, Tagged) and isinstance(payload.msg, FetchOrders):
            yield from self._handle_fetch_orders(payload)
        elif isinstance(payload, Tagged) and isinstance(payload.msg, StateRequest):
            yield from self._handle_state_request(payload)
        elif isinstance(payload, Tagged) and isinstance(payload.msg, StateResponse):
            yield from self._handle_state_response(payload)
        elif isinstance(payload, ViewChange):
            yield from self._handle_view_change(payload)
        elif isinstance(payload, NewView):
            yield from self._handle_new_view(payload)
        elif isinstance(payload, Request):
            # Plain (already-authenticated) request from a co-located Troxy
            # relay; normal client traffic arrives as SecureEnvelope.
            yield from self.submit(payload)
        else:
            self.stats.invalid_messages += 1

    # -- client requests -----------------------------------------------------------------

    def _handle_client_envelope(self, envelope: SecureEnvelope):
        body = envelope.body
        if not isinstance(body, Request):
            self.stats.invalid_messages += 1
            return
        endpoint = self._client_endpoints.get(body.client_id)
        if endpoint is None:
            self.stats.invalid_messages += 1
            return
        lock = self._channel_locks.setdefault(body.client_id, Resource(self.env, 1))
        yield lock.request()
        try:
            yield from self.node.compute(self.profile.aead_cost(envelope.wire_size))
            open_body(endpoint, envelope)
        except TlsError:
            self.stats.invalid_messages += 1
            return
        finally:
            lock.release()
        # Baseline clients distribute their requests to every replica
        # themselves, so a follower must not re-relay to the leader.
        yield from self.submit(body, relay=False)

    def submit(self, request: Request, relay: bool = True):
        """Inject an authenticated request into the ordering pipeline.

        Process generator; called with client requests (baseline) or by
        the local Troxy host (Troxy deployment). With ``relay=False`` a
        follower only starts its progress timer instead of forwarding
        (the sender is known to have contacted the leader directly).
        """
        self.stats.requests_submitted += 1
        if request.unordered and request.op.is_read:
            yield from self._execute_unordered_read(request)
            return
        last = self._executed_requests.get(request.client_id)
        if last is not None and request.request_id <= last:
            cached = self._last_reply.get(request.client_id)
            if cached is not None and cached.request_id == request.request_id:
                yield from self._emit_reply(request, cached, fresh=False)
            if relay:
                # Retransmission through a (possibly new) contact point:
                # fan out so every replica re-emits its cached reply to the
                # request's current origin (needed for Troxy failover).
                yield from self.node.compute(
                    self._tx_cost(request.wire_size) + self._mac_cost_const
                )
                self._broadcast(
                    self._tagged(Forward(request, self.replica_id)),
                    trace=self._request_trace(request),
                )
            return
        if self._view_change_pending is not None:
            return  # drop during view change; clients retransmit
        if self.is_leader:
            if (request.client_id, request.request_id) in self._inflight:
                return
            self._inflight.add((request.client_id, request.request_id))
            if (
                self.lease_manager is not None
                and not request.op.is_read
                and request.client_id != NOOP_REQUEST_CLIENT
            ):
                blocked = self.lease_manager.blocking_keys(
                    self.lease_keys_fn(request.op), self.env.now
                )
                if blocked:
                    # Single writer per key: the write waits until every
                    # covering lease is revoked-and-acked or has expired
                    # on the shared clock (docs/READS.md).
                    self.stats.lease_writes_parked += 1
                    self.lease_manager.park(request, blocked)
                    for key in blocked:
                        yield from self._revoke_lease(key)
                    return
            if self._batcher is None:
                yield from self._order(request)
            else:
                self._batcher.enqueue(request, self.env.now)
                if self.obs is not None:
                    self.obs.queue_enter(self, request)
                self._batch_signal.put(True)
        elif relay:
            yield from self.node.compute(self._tx_cost(request.wire_size) + self._mac_cost_const)
            self._send(
                self.leader_id,
                self._tagged(Forward(request, self.replica_id)),
                trace=self._request_trace(request),
            )
            self._note_progress_needed()
        else:
            self._note_progress_needed()

    def _handle_forward(self, tagged: Tagged):
        forward = tagged.msg
        if not isinstance(forward, Forward):
            self.stats.invalid_messages += 1
            return
        yield from self.node.compute(self._rx_cost(tagged.wire_size) + self._mac_cost_const)
        if not self._verify_tagged(tagged):
            self.stats.invalid_messages += 1
            return
        # relay=False: a Forward must never trigger another relay, whether
        # it carries a fresh request (to the leader) or a retransmission
        # fan-out (to everyone).
        yield from self.submit(forward.request, relay=False)

    # -- ordering: leader ------------------------------------------------------------------

    def _order(self, payload):
        """Assign the next slot to ``payload`` (a Request, or a Batch of
        requests when batching cut a multi-request batch) and broadcast
        the counter-certified ORDER. One certification per slot — that
        amortization is the point of batching."""
        if not self.is_leader:
            return
        span = None
        if self.obs is not None:
            span = self.obs.order_begin(self, payload)
        seq = -1
        try:
            # The trusted order counter is a single monotonic resource:
            # serialize slot assignment + certification (Hybster does too).
            yield self._order_lock.request()
            try:
                if not self.is_leader:
                    return
                seq = self.next_seq
                self.next_seq += 1
                if self._batcher is not None:
                    self._inflight_batch_seqs.add(seq)
                payload_digest = payload.digest()
                # Pending lease grants ride this slot: they become part
                # of the certified content, so the untrusted host cannot
                # strip or alter them in a relayed ORDER (docs/READS.md).
                grants = ()
                if self.lease_manager is not None:
                    grants = self.lease_manager.grants_for_slot(seq, self.env.now)
                    self.stats.lease_grants_attached += len(grants)
                content = Order.content_digest(self.view, seq, payload_digest, grants)
                if self.obs is not None:
                    self.obs.certify_scope(self.node.name, payload)
                # Counter certification crosses the trusted boundary (JNI/SGX).
                cert = yield from self.boundary.ecall(
                    "certify_order",
                    self._order_counter(self.view),
                    seq,
                    content,
                    bytes_in=DIGEST_SIZE,
                    bytes_out=80,
                )
            finally:
                if self.obs is not None:
                    self.obs.certify_scope_end(self.node.name)
                self._order_lock.release()
            order = Order(self.view, seq, payload, cert, self.replica_id, grants)
            entry = self.log.setdefault(seq, LogEntry())
            self._install_order(entry, order)
            entry.commit_senders[self.replica_id] = cert  # the ORDER is the leader's commit
            yield from self.node.compute(self._tx_cost(order.wire_size))
            self._broadcast(order, trace=f"seq={seq}" if self.tracer.enabled else "")
            self.stats.orders_sent += 1
            self._note_progress_needed()
            self._maybe_committed(seq)
        finally:
            if span is not None:
                self.obs.order_end(span, seq)

    # -- ordering: leader batching ------------------------------------------------------------

    def _batch_loop(self, generation: int):
        """The only process that cuts and orders batches on this leader.

        Serializing flushes through one process keeps batch formation
        deterministic and makes the take-buffer/assign-slot step atomic
        (no yield between them), so FIFO arrival order maps onto
        monotonically increasing slot numbers.
        """
        signal = self._batch_signal
        while True:
            yield signal.get()
            if generation != self._batch_generation:
                if not self._stopped:
                    signal.put(True)  # hand the wakeup to the fresh loop
                return
            if self._stopped:
                return
            yield from self._drain_batches(generation)
            if self._stopped or generation != self._batch_generation:
                return

    def _drain_batches(self, generation: int):
        """Cut and order batches while the flush policy allows it."""
        batcher = self._batcher
        while (
            not self._stopped
            and generation == self._batch_generation
            and self.is_leader
            and self._view_change_pending is None
        ):
            inflight = len(self._inflight_batch_seqs)
            reason = batcher.flush_reason(self.env.now, inflight)
            if reason is not None:
                requests = batcher.take(self.env.now)
                if not requests:
                    return
                if self.obs is not None:
                    for request in requests:
                        self.obs.queue_leave(self, request, reason, len(requests))
                payload = requests[0] if len(requests) == 1 else Batch(requests)
                self.stats.batches_sent += 1
                self.stats.batched_requests += len(requests)
                counter = "batch_flush_" + reason
                setattr(self.stats, counter, getattr(self.stats, counter) + 1)
                depth = inflight + 1
                if depth > self.stats.max_pipeline_depth:
                    self.stats.max_pipeline_depth = depth
                if self.tracer.enabled:
                    self.tracer.record(
                        self.env.now, "proto.batch", self.replica_id,
                        f"n={len(requests)} reason={reason} depth={depth}",
                    )
                if self.obs is not None:
                    self.obs.batch_flush(self, len(requests), reason, depth)
                yield from self._order(payload)
                continue
            deadline = batcher.deadline
            if deadline is None or inflight >= batcher.config.pipeline_depth:
                return  # nothing to do until the next enqueue/commit signal
            # Buffered below the cutoff with the pipeline still moving:
            # wait for the flush deadline or more arrivals, whichever
            # comes first, then re-evaluate.
            get_event = self._batch_signal.get()
            timeout = self.env.timeout(deadline - self.env.now)
            yield self.env.any_of((get_event, timeout))
            if not get_event.triggered:
                self._batch_signal.cancel(get_event)

    def _drop_batch_backlog(self) -> None:
        """Discard buffered-but-unordered requests (view change, restart,
        leadership loss). Un-registering them from ``_inflight`` lets
        client retransmissions be ordered again later."""
        if self._batcher is None:
            return
        for request in self._batcher.drain():
            self._inflight.discard((request.client_id, request.request_id))
            if self.obs is not None:
                self.obs.queue_drop(self, request)
        self._inflight_batch_seqs.clear()

    # -- ordering: follower -------------------------------------------------------------------

    def _handle_order(self, order: Order):
        yield from self.node.compute(self._rx_cost(order.wire_size) + self._mac_cost_const)
        if order.view != self.view or self._view_change_pending is not None:
            return
        if order.seq < self.next_exec:
            return  # slot already executed locally
        if order.sender != self.leader_id:
            self.stats.invalid_messages += 1
            return
        expected = Order.content_digest(
            order.view, order.seq, order.request.digest(), order.grants
        )
        if order.cert.digest != expected or order.cert.value != order.seq:
            self.stats.invalid_messages += 1
            return
        if not self.counters.verify(order.cert):
            self.stats.invalid_messages += 1
            return
        # Continuity: commit in strict sequence order so this replica's
        # commit counter never has to move backwards.
        yield self._order_lock.request()
        try:
            if order.seq < self._next_order_intake:
                return  # duplicate of an already-committed slot
            self._pending_orders[order.seq] = order
            while self._next_order_intake in self._pending_orders:
                next_order = self._pending_orders.pop(self._next_order_intake)
                yield from self._commit_order(next_order)
                self._next_order_intake += 1
        finally:
            self._order_lock.release()

    def _commit_order(self, order: Order):
        if order.seq < self.next_exec:
            return  # already executed here: nothing left to acknowledge
            yield  # pragma: no cover - generator marker
        entry = self.log.setdefault(order.seq, LogEntry())
        if entry.order is None:
            self._install_order(entry, order)
        entry.commit_senders[order.sender] = order.cert
        request_digest = order.request.digest()
        content = Commit.content_digest(order.view, order.seq, request_digest, self.replica_id)
        cert = yield from self.boundary.ecall(
            "certify_commit",
            self._commit_counter(self.view),
            order.seq,
            content,
            bytes_in=DIGEST_SIZE,
            bytes_out=80,
        )
        commit = Commit(order.view, order.seq, request_digest, cert, self.replica_id)
        entry.commit_senders[self.replica_id] = cert
        yield from self.node.compute(self._tx_cost(commit.wire_size))
        self._broadcast(commit, trace=f"seq={order.seq}" if self.tracer.enabled else "")
        self.stats.commits_sent += 1
        self._note_progress_needed()
        self._maybe_committed(order.seq)

    def _handle_commit(self, commit: Commit):
        """Count one COMMIT towards its slot's quorum — if it still can.

        Deserialise first, verify only what can change a decision: of
        the 2f commits a slot draws per replica, those arriving after
        ``commit_quorum`` was reached (or after the slot executed) are
        *surplus*. They pay the unmarshal cost and are counted in
        ``stats.surplus_commits``; nothing hashes or MAC-checks them, so
        a forged certificate on a decided slot is dropped unread and is
        not an ``invalid_messages`` increment — it could not have
        changed anything. A commit on an undecided slot is verified and
        rejected exactly as before. View changes reset ``committed``, so
        commits of re-proposed slots are verified afresh.
        """
        yield from self.node.compute(self._tx_cost(commit.wire_size))
        if self._commit_is_moot(commit):
            return
        yield from self.node.charge(
            self._hash_base + self._hash_per_byte * commit.wire_size,
            self._mac_cost_const,
        )
        if self._commit_is_moot(commit):
            return  # the view or the slot moved on while the core was held
        expected = Commit.content_digest(
            commit.view, commit.seq, commit.request_digest, commit.sender
        )
        if commit.cert.digest != expected or commit.cert.value != commit.seq:
            self.stats.invalid_messages += 1
            return
        if not self.counters.verify(commit.cert):
            self.stats.invalid_messages += 1
            return
        entry = self.log.setdefault(commit.seq, LogEntry())
        if entry.order is not None and entry.order.request.digest() != commit.request_digest:
            self.stats.invalid_messages += 1
            return
        entry.commit_senders[commit.sender] = commit.cert
        self._maybe_committed(commit.seq)

    def _commit_is_moot(self, commit: Commit) -> bool:
        """The free checks: a commit for another view is ignored, one
        for an executed or already committed slot is surplus."""
        if commit.view != self.view or self._view_change_pending is not None:
            return True
        entry = self.log.get(commit.seq)
        if commit.seq < self.next_exec or (entry is not None and entry.committed):
            self.stats.surplus_commits += 1
            return True
        return False

    def _maybe_committed(self, seq: int) -> None:
        entry = self.log.get(seq)
        if entry is None or entry.committed or entry.order is None:
            return
        if len(entry.commit_senders) >= self.config.commit_quorum:
            entry.committed = True
            if self.tracer.enabled:
                self.tracer.record(self.env.now, "proto.commit", self.replica_id, f"seq={seq}")
            if self.obs is not None:
                payload = entry.order.request
                requests = (
                    payload.requests if type(payload) is Batch else (payload,)
                )
                for request in requests:
                    if request.client_id != NOOP_REQUEST_CLIENT:
                        self.obs.order_committed(self, request, seq)
            if self._batcher is not None and seq in self._inflight_batch_seqs:
                # A pipeline slot freed up; if backlog is waiting, wake
                # the batch loop so it can cut the next batch.
                self._inflight_batch_seqs.discard(seq)
                if len(self._batcher):
                    self._batch_signal.put(True)
            self._exec_signal.put(seq)

    # -- execution ----------------------------------------------------------------------------

    def _execution_loop(self):
        while True:
            yield self._exec_signal.get()
            while True:
                entry = self.log.get(self.next_exec)
                if entry is None or not entry.committed or entry.executed:
                    break
                executed_seq = self.next_exec
                yield from self._execute_entry(executed_seq, entry)
                self.next_exec = executed_seq + 1
                if executed_seq <= self.stable_seq:
                    # Executed behind an already-stable checkpoint (we
                    # were lagging): the entry is disposable right away.
                    self._truncate_log()

    def _execute_entry(self, seq: int, entry: LogEntry):
        entry.executed = True
        self._unexec_ordered -= 1
        request = entry.order.request
        if type(request) is Batch:
            yield from self._execute_batch(seq, request)
        elif request.client_id != NOOP_REQUEST_CLIENT:
            span = None
            if self.obs is not None:
                span = self.obs.execute_begin(self, request, seq)
            try:
                yield from self.node.compute(self.app.execution_cost(request.op))
                result = self.app.execute(request.op)
                reply = Reply(
                    replica_id=self.replica_id,
                    client_id=request.client_id,
                    request_id=request.request_id,
                    result=result,
                    request_digest=request.digest(),
                    view=self.view,
                )
                self._executed_requests[request.client_id] = request.request_id
                self._last_reply[request.client_id] = reply
                self._inflight.discard((request.client_id, request.request_id))
                self.stats.executions += 1
                if self.tracer.enabled:
                    self.tracer.record(self.env.now, "proto.execute", self.replica_id,
                                       f"seq={seq} client={request.client_id} rid={request.request_id}")
                yield from self._emit_reply(request, reply)
            finally:
                if span is not None:
                    self.obs.execute_end(span)
        if entry.order.grants and self.lease_sink is not None:
            # Leases activate only when their carrying slot *executes*:
            # every earlier write has already invalidated the holder's
            # cache, so activation can never expose a pre-write entry.
            yield from self.lease_sink(entry.order.grants)
        self._progress_made()
        if seq % self.config.checkpoint_interval == 0:
            yield from self._emit_checkpoint(seq)

    def _execute_batch(self, seq: int, batch: Batch):
        """Execute every entry of a batched slot in order, then hand all
        (request, reply) pairs to the batch sink in one call — the sink
        must make no reply visible before it has invalidated every key
        the batch wrote (fast-read freshness)."""
        pairs = []
        for request in batch.requests:
            if request.client_id == NOOP_REQUEST_CLIENT:
                continue
            span = None
            if self.obs is not None:
                span = self.obs.execute_begin(self, request, seq)
            try:
                yield from self.node.compute(self.app.execution_cost(request.op))
                result = self.app.execute(request.op)
                reply = Reply(
                    replica_id=self.replica_id,
                    client_id=request.client_id,
                    request_id=request.request_id,
                    result=result,
                    request_digest=request.digest(),
                    view=self.view,
                )
                self._executed_requests[request.client_id] = request.request_id
                self._last_reply[request.client_id] = reply
                self._inflight.discard((request.client_id, request.request_id))
                self.stats.executions += 1
                if self.tracer.enabled:
                    self.tracer.record(self.env.now, "proto.execute", self.replica_id,
                                       f"seq={seq} client={request.client_id} rid={request.request_id}")
                pairs.append((request, reply))
            finally:
                if span is not None:
                    self.obs.execute_end(span)
        if pairs:
            yield from self.batch_reply_sink(pairs)

    def _default_batch_reply_sink(self, pairs):
        """Baseline deployment: batched replies are independent sends."""
        for request, reply in pairs:
            yield from self._emit_reply(request, reply)

    def _execute_unordered_read(self, request: Request):
        """The PBFT-like read optimization: execute against current state."""
        self.stats.unordered_reads += 1
        yield from self.node.compute(self.app.execution_cost(request.op))
        result = self.app.execute_read(request.op)
        reply = Reply(
            replica_id=self.replica_id,
            client_id=request.client_id,
            request_id=request.request_id,
            result=result,
            request_digest=request.digest(),
            view=self.view,
        )
        yield from self._emit_reply(request, reply)

    def _emit_reply(self, request: Request, reply: Reply, fresh: bool = True):
        # ``fresh`` distinguishes a reply produced by executing the
        # request now from a replay out of the duplicate-suppression
        # cache; sinks that maintain state keyed to execution order (the
        # Troxy fast-read cache) must not treat a replay as fresh.
        yield from self.reply_sink(request, reply, fresh)

    def _default_reply_sink(self, request: Request, reply: Reply, fresh: bool = True):
        """Baseline deployment: seal the reply for the client and send it."""
        endpoint = self._client_endpoints.get(request.client_id)
        if endpoint is None:
            return
        yield from self.node.compute(self.profile.aead_cost(reply.wire_size))
        envelope = seal_body(endpoint, reply)
        if self.tracer.enabled:
            self.tracer.record(self.env.now, "proto.send", self.replica_id,
                               f"reply rid={reply.request_id} ->{request.origin}")
        # Baseline replies ride the shared library connection to the
        # client machine (one client-side library process per machine).
        self.net.send(self.node.name, request.origin, envelope)

    # -- checkpoints ------------------------------------------------------------------------------

    def _emit_checkpoint(self, seq: int):
        snapshot = self.app.snapshot()
        state_digest = digest_of(seq.to_bytes(8, "big"), snapshot)
        checkpoint = Checkpoint(seq, state_digest, self.replica_id)
        self._note_checkpoint_vote(checkpoint, snapshot)
        yield from self.node.compute(self._tx_cost(checkpoint.wire_size) + self._mac_cost_const)
        self._broadcast(self._tagged(checkpoint))

    def _handle_checkpoint(self, tagged: Tagged):
        checkpoint = tagged.msg
        yield from self.node.compute(self._rx_cost(tagged.wire_size) + self._mac_cost_const)
        if not self._verify_tagged(tagged):
            self.stats.invalid_messages += 1
            return
        self._note_checkpoint_vote(checkpoint, None)

    def _handle_fetch_orders(self, tagged: Tagged):
        fetch = tagged.msg
        yield from self.node.compute(self._rx_cost(tagged.wire_size) + self._mac_cost_const)
        if not self._verify_tagged(tagged):
            self.stats.invalid_messages += 1
            return
        for seq in range(fetch.first, fetch.last + 1):
            entry = self.log.get(seq)
            if entry is not None and entry.order is not None:
                yield from self.node.compute(self._tx_cost(entry.order.wire_size))
                self._send(tagged.sender, entry.order, trace=f"refetch seq={seq}")

    def _request_missing_orders(self):
        """Intake stalled behind buffered orders: ask peers for the gap."""
        if not self._pending_orders:
            return
            yield  # pragma: no cover - generator marker
        first_buffered = min(self._pending_orders)
        if first_buffered <= self._next_order_intake:
            return
        fetch = FetchOrders(
            self.view, self._next_order_intake, first_buffered - 1, self.replica_id
        )
        yield from self.node.compute(self._tx_cost(fetch.wire_size) + self._mac_cost_const)
        self._send(self.leader_id, self._tagged(fetch))

    def _handle_state_request(self, tagged: Tagged):
        request = tagged.msg
        yield from self.node.compute(self._rx_cost(tagged.wire_size) + self._mac_cost_const)
        if not self._verify_tagged(tagged):
            self.stats.invalid_messages += 1
            return
        if self.stable_seq <= request.low_water:
            return  # nothing newer to offer
        response = StateResponse(
            self.stable_seq, self.stable_snapshot, self.next_exec - 1, self.replica_id
        )
        yield from self.node.compute(
            self._tx_cost(response.wire_size) + self._mac_cost_const
            + self.profile.hash_cost(len(response.snapshot))
        )
        self._send(tagged.sender, self._tagged(response), trace=f"state@{self.stable_seq}")

    def _handle_state_response(self, tagged: Tagged):
        response = tagged.msg
        yield from self.node.compute(
            self._rx_cost(tagged.wire_size) + self._mac_cost_const
            + self.profile.hash_cost(len(response.snapshot))
        )
        if not self._verify_tagged(tagged):
            self.stats.invalid_messages += 1
            return
        if response.seq < self.next_exec:
            return  # we caught up by ourselves in the meantime
        # Install only state that f+1 distinct replicas agree on: either
        # we already tallied f+1 checkpoint votes for this digest, or we
        # have collected f+1 identical StateResponses.
        expected = digest_of(response.seq.to_bytes(8, "big"), response.snapshot)
        votes = self._checkpoint_votes.get(response.seq, {})
        checkpoint_matches = sum(1 for digest in votes.values() if digest == expected)
        offers = self._state_offers.setdefault((response.seq, expected), set())
        offers.add(tagged.sender)
        if checkpoint_matches < self.config.f + 1 and len(offers) < self.config.f + 1:
            return  # keep waiting for corroboration
        self._state_offers.clear()
        self.app.restore(response.snapshot)
        self.stable_snapshot = response.snapshot
        self.stable_seq = max(self.stable_seq, response.seq)
        self.next_exec = response.seq + 1
        self._next_order_intake = max(self._next_order_intake, response.seq + 1)
        self._pending_orders = {
            seq: order for seq, order in self._pending_orders.items()
            if seq > response.seq
        }
        self.stats.state_transfers += 1
        self._truncate_log()
        self.tracer.record(self.env.now, "proto.statetransfer", self.replica_id,
                           f"installed state@{response.seq}")
        self._progress_made()
        if response.high_water >= self.next_exec:
            # Fetch the slots committed after the checkpoint; peers still
            # hold them in their logs.
            fetch = FetchOrders(
                self.view, self.next_exec, response.high_water, self.replica_id
            )
            yield from self.node.compute(self._tx_cost(fetch.wire_size) + self._mac_cost_const)
            self._broadcast(self._tagged(fetch))

    def _maybe_request_state(self, probe: bool = False):
        """Fetch checkpointed state when this replica cannot catch up by
        itself: it is stuck behind the cluster's stable checkpoint, or it
        just recovered (``probe``) and must ask whether it missed
        anything — peers only answer if they are ahead."""
        if not probe and self.stable_seq < self.next_exec:
            return
            yield  # pragma: no cover - generator marker
        entry = self.log.get(self.next_exec)
        if entry is not None and entry.order is not None:
            return  # we still hold the next slot: normal path will run it
        request = StateRequest(self.next_exec - 1, self.replica_id)
        yield from self.node.compute(self._tx_cost(request.wire_size) + self._mac_cost_const)
        self._broadcast(self._tagged(request))

    def restart(self) -> None:
        """Recover a crashed replica: rejoin with an empty volatile state.

        The trusted counters survived (sealed storage); the log and app
        state are rebuilt via state transfer + normal ordering."""
        self.node.recover()
        self.net.reset_streams(self.node.name)
        self._stopped = False
        self._view_change_pending = None
        self._drop_parked_writes()
        self._progress_deadline = self.env.now + self.config.progress_timeout
        if self._owns_inbox:
            self._loop_generation += 1
            self.env.process(
                self._message_loop(self._loop_generation),
                name=f"{self.replica_id}:loop",
            )
        self.env.process(self._progress_monitor(), name=f"{self.replica_id}:monitor")
        if self._batcher is not None:
            self._drop_batch_backlog()
            self._batch_generation += 1
            self.env.process(
                self._batch_loop(self._batch_generation),
                name=f"{self.replica_id}:batcher",
            )
        self.env.process(
            self._maybe_request_state(probe=True), name=f"{self.replica_id}:catchup"
        )

    def _note_checkpoint_vote(self, checkpoint: Checkpoint, snapshot: Optional[bytes]) -> None:
        votes = self._checkpoint_votes.setdefault(checkpoint.seq, {})
        votes[checkpoint.sender] = checkpoint.state_digest
        matching = sum(
            1 for digest in votes.values() if digest == checkpoint.state_digest
        )
        if matching >= self.config.f + 1 and checkpoint.seq > self.stable_seq:
            self.stable_seq = checkpoint.seq
            if snapshot is not None:
                self.stable_snapshot = snapshot
            elif self.next_exec > checkpoint.seq:
                self.stable_snapshot = self.app.snapshot()
            self.stats.checkpoints_stable += 1
            self._truncate_log()

    def _truncate_log(self) -> None:
        # Never drop entries this replica still has to execute, even when
        # the cluster's stable checkpoint has moved past them (a lagging
        # replica catches up from its own log).
        cut = min(self.stable_seq, self.next_exec - 1)
        for seq in [s for s in self.log if s <= cut]:
            entry = self.log.pop(seq)
            if entry.order is not None and not entry.executed:
                self._unexec_ordered -= 1
        for seq in [s for s in self._checkpoint_votes if s < self.stable_seq]:
            del self._checkpoint_votes[seq]

    # -- lease granting & write parking (docs/READS.md) --------------------------------------------

    def handle_lease_request(self, msg):
        """A Troxy asked for (or renewed) a read lease on one key.

        Fire-and-forget from the holder's perspective: the leader queues
        the request and the grant rides the next ordered slot. Refused
        silently when this replica is not leading or a view change is in
        flight — the holder re-requests after its backoff.
        """
        yield from self.node.compute(self._rx_cost(msg.wire_size) + self._mac_cost_const)
        holder_key = self.keyring.troxy_instance(msg.holder)
        if not holder_key.verify(msg.auth_input(msg.key, msg.holder), msg.tag):
            self.stats.invalid_messages += 1
            return
        if (
            self.lease_manager is None
            or not self.is_leader
            or self._view_change_pending is not None
        ):
            return
        if self.lease_manager.note_request(msg.key, msg.holder, self.env.now):
            self._arm_lease_flush()

    def _arm_lease_flush(self) -> None:
        """Queued grants must not depend on write traffic for delivery:
        if no slot is ordered within one backoff window, a noop slot is
        ordered to carry them. Read-only workloads renew leases through
        exactly this path."""
        if self._lease_flush_armed:
            return
        self._lease_flush_armed = True
        self.env.process(
            self._lease_grant_flush(),
            name=f"{self.replica_id}:lease-flush",
        )

    def _lease_grant_flush(self):
        try:
            yield self.env.timeout(self.lease_manager.config.request_backoff)
            if (
                self._stopped
                or not self.is_leader
                or self._view_change_pending is not None
                or self.lease_manager is None
                or not self.lease_manager.has_pending()
            ):
                return
            yield from self._order(noop_request(self.next_seq, self.replica_id))
        finally:
            self._lease_flush_armed = False

    def handle_lease_ack(self, ack):
        """A holder confirmed its lease is dead and fenced; writes parked
        behind that lease can be ordered."""
        yield from self.node.compute(self._rx_cost(ack.wire_size) + self._mac_cost_const)
        holder_key = self.keyring.troxy_instance(ack.holder)
        if not holder_key.verify(
            ack.auth_input(ack.key, ack.epoch, ack.holder), ack.tag
        ):
            self.stats.invalid_messages += 1
            return
        if self.lease_manager is None:
            return
        if self.lease_manager.on_ack(ack.key, ack.epoch, ack.holder):
            yield from self._release_lease_key(ack.key)

    def _revoke_lease(self, key: str):
        """Start revoking the lease covering ``key``: tell the holder to
        stop serving, and arm the expiry timer as the no-ack fallback
        (the holder may be partitioned — once the lease expires on the
        shared clock it cannot serve either way)."""
        manager = self.lease_manager
        grant = manager.begin_revoke(key)
        if grant is None:
            if not manager.is_revoking(key):
                # The lease vanished (expired) between the blocking check
                # and now: nothing blocks the parked write anymore.
                yield from self._release_lease_key(key)
            return
        self.stats.lease_revokes_sent += 1
        revoke = manager.make_revoke(grant)
        yield from self.node.compute(self._tx_cost(revoke.wire_size) + self._mac_cost_const)
        if grant.holder == self.replica_id and self.lease_revoke_sink is not None:
            # Revoking our own co-located Troxy: straight into the ecall.
            yield from self.lease_revoke_sink(revoke)
        else:
            self._send(
                grant.holder, revoke,
                trace=f"lease key={key}" if self.tracer.enabled else "",
            )
        self.env.process(
            self._lease_revoke_timer(key, grant),
            name=f"{self.replica_id}:lease-timer",
        )

    def _lease_revoke_timer(self, key: str, grant):
        yield self.env.timeout(max(grant.expiry - self.env.now, 0.0))
        if self._stopped or self.lease_manager is None:
            return
        if self.lease_manager.on_revoke_expired(key, grant, self.env.now):
            yield from self._release_lease_key(key)

    def _release_lease_key(self, key: str):
        """A lease stopped covering ``key``: re-dispatch every parked
        write that has no blocking keys left."""
        released = self.lease_manager.release_key(key)
        self.stats.lease_parked_released += len(released)
        for request in released:
            yield from self._order_released(request)

    def _order_released(self, request: Request):
        key = (request.client_id, request.request_id)
        if (
            self._stopped
            or not self.is_leader
            or self._view_change_pending is not None
        ):
            self._inflight.discard(key)  # client retransmits to the new leader
            return
        manager = self.lease_manager
        blocked = manager.blocking_keys(self.lease_keys_fn(request.op), self.env.now)
        if blocked:
            # A fresh lease landed while this write was parked: park
            # again behind a new revocation round.
            manager.park(request, blocked)
            for blocked_key in blocked:
                yield from self._revoke_lease(blocked_key)
            return
        if self._batcher is None:
            yield from self._order(request)
        else:
            self._batcher.enqueue(request, self.env.now)
            if self.obs is not None:
                self.obs.queue_enter(self, request)
            self._batch_signal.put(True)

    def _drop_parked_writes(self) -> None:
        """View change / restart: abandon parked writes (clients
        retransmit; a new leader re-parks against its adopted leases)."""
        if self.lease_manager is None:
            return
        for request in self.lease_manager.drain_parked():
            self._inflight.discard((request.client_id, request.request_id))
            self.stats.lease_parked_dropped += 1

    # -- progress monitoring & view change ----------------------------------------------------------

    def _install_order(self, entry: LogEntry, order: Order) -> None:
        """Install an order into a log slot, maintaining the backlog count."""
        if entry.order is None and not entry.executed:
            self._unexec_ordered += 1
        entry.order = order
        if order.grants and self.lease_directory is not None:
            # Mirror every grant seen in the ordered stream: should this
            # replica lead later, the mirror is its (conservative) view
            # of which leases may still be live (docs/READS.md).
            for grant in order.grants:
                self.lease_directory.observe(grant)

    def _note_progress_needed(self) -> None:
        if self._progress_deadline is None:
            self._progress_deadline = self.env.now + self.config.progress_timeout

    def _progress_made(self) -> None:
        # O(1) equivalent of scanning the log for an entry with an
        # installed order that has not executed yet.
        if self._unexec_ordered > 0:
            self._progress_deadline = self.env.now + self.config.progress_timeout
        else:
            self._progress_deadline = None

    def _progress_monitor(self):
        poll = self.config.progress_timeout / 4
        while True:
            yield self.env.timeout(poll)
            if self._stopped:
                return
            yield from self._request_missing_orders()
            yield from self._maybe_request_state()
            if (
                self._progress_deadline is not None
                and self.env.now >= self._progress_deadline
                and self._view_change_pending is None
            ):
                yield from self._start_view_change(self.view + 1)
            elif (
                self._view_change_pending is not None
                and self.env.now >= self._progress_deadline
            ):
                # View change itself stalled: escalate.
                yield from self._start_view_change(self._view_change_pending + 1)

    def _start_view_change(self, new_view: int):
        if new_view <= self.view:
            return
        self.stats.view_changes += 1
        self._view_change_pending = new_view
        self._drop_batch_backlog()
        self._drop_parked_writes()
        self._progress_deadline = self.env.now + self.config.progress_timeout
        prepared = tuple(
            entry.order
            for seq, entry in sorted(self.log.items())
            if entry.order is not None and seq > self.stable_seq
        )
        prepared_digest = digest_of(*[order.digest() for order in prepared])
        content = ViewChange.content_digest(
            new_view, self.stable_seq, prepared_digest, self.replica_id
        )
        self._ensure_counter("viewchange")
        cert = yield from self.boundary.ecall(
            "certify_viewchange",
            "viewchange",
            self.counters.current("viewchange") + 1,
            content,
            bytes_in=DIGEST_SIZE,
            bytes_out=80,
        )
        vc = ViewChange(
            new_view, self.stable_seq, self.stable_snapshot, prepared, self.replica_id, cert
        )
        self.tracer.record(self.env.now, "proto.viewchange", self.replica_id, f"view={new_view}")
        self._record_view_change(vc)
        yield from self.node.compute(self._tx_cost(vc.wire_size))
        self._broadcast(vc)
        yield from self._maybe_install_view(new_view)

    def _handle_view_change(self, vc: ViewChange):
        yield from self.node.compute(self._rx_cost(vc.wire_size) + self._mac_cost_const)
        if vc.new_view <= self.view:
            return
        if not self.counters.verify(vc.cert):
            self.stats.invalid_messages += 1
            return
        self._record_view_change(vc)
        # Join the view change once f+1 replicas demand it, or immediately
        # if we will lead the new view.
        votes = self._view_changes.get(vc.new_view, {})
        if self._view_change_pending is None and (
            len(votes) >= self.config.f + 1
            or self.config.leader_of(vc.new_view) == self.replica_id
        ):
            yield from self._start_view_change(vc.new_view)
            return
        yield from self._maybe_install_view(vc.new_view)

    def _record_view_change(self, vc: ViewChange) -> None:
        self._view_changes.setdefault(vc.new_view, {})[vc.sender] = vc

    def _maybe_install_view(self, new_view: int):
        """New leader: once f+1 ViewChanges arrived, install the view."""
        if self.config.leader_of(new_view) != self.replica_id:
            return
            yield  # pragma: no cover - generator marker
        votes = self._view_changes.get(new_view, {})
        if len(votes) < self.config.f + 1 or self.view >= new_view:
            return
        # Adopt the most advanced stable checkpoint among the votes.
        best = max(votes.values(), key=lambda vc: vc.stable_seq)
        if best.stable_seq > self.stable_seq:
            self.stable_seq = best.stable_seq
            self.stable_snapshot = best.state_snapshot
            if self.next_exec <= best.stable_seq:
                self.app.restore(best.state_snapshot)
                self.next_exec = best.stable_seq + 1
            self._truncate_log()
        # Union of prepared orders above the checkpoint.
        union: dict[int, Order] = {}
        for vc in votes.values():
            for order in vc.prepared:
                if order.seq > self.stable_seq:
                    known = union.get(order.seq)
                    if known is None or order.view > known.view:
                        union[order.seq] = order
        max_seq = max(union, default=self.stable_seq)
        self.view = new_view
        self._view_change_pending = None
        self._drop_batch_backlog()
        self._drop_parked_writes()
        if self.lease_manager is not None:
            # Take over granting: forget pending requests from the old
            # leadership and adopt the directory mirror as the active
            # lease set. The mirror may over-approximate (a write then
            # parks at most one lease duration) but cannot miss a lease
            # below this replica's commit point — every grant rode a
            # certified order.
            self.lease_manager.reset()
            if self.lease_directory is not None:
                self.lease_manager.adopt(
                    self.lease_directory.active(self.env.now), self.env.now
                )
        self._ensure_counter(self._order_counter(new_view))
        self._ensure_counter(self._commit_counter(new_view))
        self._pending_orders.clear()
        self._next_order_intake = self.stable_seq + 1
        # Never hand out a slot this replica has already executed (its
        # execution may be ahead of both the adopted checkpoint and the
        # prepared union).
        self.next_seq = max(max_seq + 1, self.next_exec)
        reproposals = []
        for seq in range(self.stable_seq + 1, max_seq + 1):
            old = union.get(seq)
            request = old.request if old is not None else noop_request(seq, self.replica_id)
            # Re-proposals must carry the original grants forward: a
            # replica that only learns this slot from the new view still
            # mirrors the grant, so a third leader in quick succession
            # cannot miss a lease that is still being served.
            grants = old.grants if old is not None else ()
            content = Order.content_digest(new_view, seq, request.digest(), grants)
            cert = yield from self.boundary.ecall(
                "certify_order",
                self._order_counter(new_view),
                seq,
                content,
                bytes_in=DIGEST_SIZE,
                bytes_out=80,
            )
            order = Order(new_view, seq, request, cert, self.replica_id, grants)
            reproposals.append(order)
            if seq >= self.next_exec:
                entry = self.log.setdefault(seq, LogEntry())
                self._install_order(entry, order)
                entry.committed = False
                entry.commit_senders = {self.replica_id: cert}
        content = NewView.content_digest(
            new_view, digest_of(*[o.digest() for o in reproposals]), self.replica_id
        )
        self._ensure_counter("newview")
        cert = yield from self.boundary.ecall(
            "certify_viewchange",
            "newview",
            self.counters.current("newview") + 1,
            content,
            bytes_in=DIGEST_SIZE,
            bytes_out=80,
        )
        new_view_msg = NewView(
            new_view, tuple(votes.values()), tuple(reproposals), self.replica_id, cert
        )
        yield from self.node.compute(self._tx_cost(new_view_msg.wire_size))
        self._broadcast(new_view_msg)
        self.tracer.record(self.env.now, "proto.newview", self.replica_id, f"view={new_view}")
        for seq in sorted(union):
            self._maybe_committed(seq)
        self._progress_made()

    def _handle_new_view(self, nv: NewView):
        yield from self.node.compute(self._rx_cost(nv.wire_size) + self._mac_cost_const)
        if nv.view <= self.view:
            return
        if nv.sender != self.config.leader_of(nv.view):
            self.stats.invalid_messages += 1
            return
        if not self.counters.verify(nv.cert):
            self.stats.invalid_messages += 1
            return
        if len(nv.view_changes) < self.config.f + 1:
            self.stats.invalid_messages += 1
            return
        best = max(nv.view_changes, key=lambda vc: vc.stable_seq)
        if best.stable_seq > self.stable_seq:
            self.stable_seq = best.stable_seq
            self.stable_snapshot = best.state_snapshot
            if self.next_exec <= best.stable_seq:
                self.app.restore(best.state_snapshot)
                self.next_exec = best.stable_seq + 1
            self._truncate_log()
        self.view = nv.view
        self._view_change_pending = None
        self._drop_batch_backlog()
        self._drop_parked_writes()
        if self.lease_manager is not None:
            self.lease_manager.reset()  # leadership (if any) is over
        self._ensure_counter(self._commit_counter(nv.view))
        self._pending_orders.clear()
        self._next_order_intake = self.stable_seq + 1
        # Drop uncommitted state from older views; the new leader's
        # re-proposals overwrite those slots.
        for seq, entry in list(self.log.items()):
            if not entry.executed and seq > self.stable_seq:
                if entry.order is not None:
                    self._unexec_ordered -= 1
                entry.order = None
                entry.committed = False
                entry.commit_senders = {}
        self.tracer.record(self.env.now, "proto.newview", self.replica_id,
                           f"installed view={nv.view}")
        yield self._order_lock.request()
        try:
            for order in sorted(nv.orders, key=lambda o: o.seq):
                self._pending_orders[order.seq] = order
            while self._next_order_intake in self._pending_orders:
                next_order = self._pending_orders.pop(self._next_order_intake)
                if next_order.seq >= self.next_exec:
                    yield from self._commit_order(next_order)
                self._next_order_intake += 1
        finally:
            self._order_lock.release()
        self._progress_made()
