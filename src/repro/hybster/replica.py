"""The Hybster replica core.

One :class:`Replica` runs on one simulated node. Incoming messages are
handled by per-message processes (modelling Hybster's parallelized
message handling across cores) while two invariants are kept serial:

* ORDER intake is processed in sequence-number order under a lock, so
  each replica's commit counter advances monotonically (continuity);
* execution happens in a dedicated process, strictly in slot order.

The trusted counter subsystem is reached through the enclave boundary
(JNI in the original Hybster), so every certify/verify pays the
crossing cost in addition to the MAC itself.

This module is the per-request path: dispatch, ``submit``, ordering,
commit, execution, reply sinks. View change, checkpointing, batching
and lease granting are *roles* that share the replica as their context
(DESIGN.md D11); the last two exist only when the feature is on. Every
authenticator, whichever role receives it, is checked by
:meth:`Replica.cert_binds` or :meth:`Replica.open_tagged`.

Reply delivery is pluggable through ``reply_sink`` so the same replica
core serves both the baseline deployment (replies go straight to the
client over TLS) and the Troxy deployment (replies are handed to the
local Troxy for authentication, cache invalidation, and voting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..apps.base import Application, Payload
from ..crypto.costs import RuntimeProfile, profile as cost_profile
from ..crypto.keys import KeyRing
from ..crypto.primitives import DIGEST_SIZE
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
from ..sim.probe import Probe
from .batching import BatchPipeline
from .checkpoint import Checkpointer
from .config import ClusterConfig
from .messages import (
    NOOP_REQUEST_CLIENT,
    Batch,
    Commit,
    Forward,
    Order,
    Reply,
    Request,
    Tagged,
)
from .secure import SecureEnvelope, open_body, seal_body
from .viewchange import ViewChanger


@dataclass(slots=True, init=False)
class LogEntry:
    """Per-slot ordering state."""

    order: Optional[Order] = None
    commit_senders: dict[str, CounterCertificate] = field(default_factory=dict)
    committed: bool = False
    executed: bool = False

    def __init__(self, order=None, commit_senders=None, committed=False, executed=False):
        self.order = order
        self.commit_senders = {} if commit_senders is None else commit_senders
        self.committed = committed
        self.executed = executed


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

    #: ``send_tagged`` destination that is resolved *after* the send cost
    #: was charged: the view, and with it the leader, may move while the
    #: core is held.
    LEADER = object()

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
        probe: Optional[Probe] = None,
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
        # Where this replica and its roles report (repro.sim.probe).
        self.probe = probe if probe is not None else Probe(env)
        self.profile: RuntimeProfile = cost_profile(config.runtime)
        self.stats = ReplicaStats()

        # Shared context: state that two or more roles read.
        self.view = 0
        self.log: dict[int, LogEntry] = {}
        self.next_seq = 1  # leader: next slot to assign
        self.next_exec = 1
        self.stable_seq = 0
        self.stable_snapshot: bytes = app.snapshot()
        self._next_order_intake = 1  # continuity cursor for this view
        self._pending_orders: dict[int, Order] = {}
        self._order_lock = Resource(env, capacity=1)
        self._inflight: set[tuple[str, int]] = set()
        self._view_change_pending: Optional[int] = None
        self._stopped = False
        # Count of log entries with an installed order that are not yet
        # executed; kept in sync by the order/execute/truncate paths so
        # the progress check is O(1) instead of scanning the log.
        self._unexec_ordered = 0

        self._exec_signal = Store(env)
        self._last_reply: dict[str, Reply] = {}
        self._executed_requests: dict[str, int] = {}
        self._client_endpoints: dict[str, TlsEndpoint] = {}
        # TLS records of one client session must be opened in arrival
        # order; concurrent message handlers serialize per client.
        self._channel_locks: dict[str, Resource] = {}

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
        self.counters.create(Commit.counter(0))
        if self.is_leader:
            self.counters.create(Order.counter(0))

        # ``fresh`` (third argument) tells a reply produced by executing
        # the request now from a replay out of the duplicate-suppression
        # cache; sinks that maintain state keyed to execution order (the
        # Troxy fast-read cache) must not treat a replay as fresh.
        self.reply_sink: Callable = self._default_reply_sink
        # Batched counterpart: receives the ordered (request, reply)
        # pairs of one executed batch in a single call, so a Troxy sink
        # can invalidate every written key before any reply in the batch
        # becomes visible (fast-read freshness across batch boundaries).
        self.batch_reply_sink: Callable = self._default_batch_reply_sink

        # Trusted-subsystem entry points (three of Hybster's boundary
        # crossings); each certify pays the crossing plus one MAC.
        for ecall_name in ("certify_order", "certify_commit", "certify_viewchange"):
            trusted_boundary.register_ecall(ecall_name, self._trusted_certify)
        # Audit-ledger checkpoints (repro.obs.audit) cross the same
        # trusted boundary; the sealed audit-ledger counter fences
        # checkpoint numbers so a rewound ledger cannot be re-certified.
        trusted_boundary.register_ecall("certify_ledger", self._certify_ledger)

        # Roles. A feature that is off is a role that is absent; the
        # Troxy build attaches ``leasing`` (repro.troxy.lease), so this
        # package imports nothing from repro.troxy.
        self.viewchange = ViewChanger(self)
        self.checkpoint = Checkpointer(self)
        self.batching = BatchPipeline(self) if config.batching else None
        self.leasing = None
        # A message that travels tagged is keyed (Tagged, inner class):
        # no handler ever sees the wrong wire shape.
        self._handlers: dict = {
            SecureEnvelope: self._handle_client_envelope,
            # Plain (already-authenticated) request from a co-located
            # Troxy relay; normal client traffic arrives as SecureEnvelope.
            Request: self.submit,
            Order: self._handle_order,
            Commit: self._handle_commit,
            (Tagged, Forward): self._handle_forward,
            **self.viewchange.handlers,
            **self.checkpoint.handlers,
        }

        self._owns_inbox = owns_inbox
        self._loop_generation = 0
        if owns_inbox:
            env.process(self._message_loop(0), name=f"{replica_id}:loop")
        env.process(self._execution_loop(), name=f"{replica_id}:exec")
        self.viewchange.start()
        if self.batching is not None:
            self.batching.start()

    # -- identity helpers ------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.config.leader_of(self.view) == self.replica_id

    @property
    def leader_id(self) -> str:
        return self.config.leader_of(self.view)

    @property
    def may_order(self) -> bool:
        """In service, leading, and no view change in flight."""
        return not self._stopped and self.is_leader and self._view_change_pending is None

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

    # -- trusted counters: one way to certify, one way to check --------------------

    def _trusted_certify(self, counter: str, value: int, digest: bytes):
        """Trusted-side body of the certify ecalls."""
        yield from self.node.compute(self._mac_cost_const)
        return self.counters.certify_at(counter, value, digest)

    def _certify_ledger(self, seq: int, head: bytes):
        """Trusted-side body of the certify_ledger ecall."""
        yield from self.node.compute(self._mac_cost_const)
        return certify_ledger_checkpoint(self.counters, seq, head)

    def certify(self, ecall: str, counter: str, value: int, content: bytes):
        """Counter certification crosses the trusted boundary (JNI/SGX);
        use as ``cert = yield from ...``. A plain function returning the
        ecall's generator (as ``Node.compute`` does): no frame of its own."""
        return self.boundary.ecall(
            ecall, counter, value, content, bytes_in=DIGEST_SIZE, bytes_out=80
        )

    def cert_binds(self, cert: CounterCertificate, issuer: str, counter: str,
                   value: Optional[int], digest: bytes) -> bool:
        """The one certificate check: ``cert`` comes from the trusted
        subsystem of group member ``issuer``, on the counter this
        protocol step uses, at ``value`` (None where the receiver cannot
        know it), over the digest *recomputed from the carried content*.

        A tag that verifies proves only that some subsystem certified
        something; without the comparisons a Byzantine replica certifies
        on its own counters in another's name, or replays a certificate
        (DESIGN.md section 5). Plain compares, ahead of the MAC check.
        """
        return (
            cert.subsystem_id == issuer
            and issuer in self.config.replica_ids
            and cert.counter_name == counter
            and (value is None or cert.value == value)
            and cert.digest == digest
            and self.counters.verify(cert)
        )

    def order_binds(self, order: Order) -> bool:
        """``order`` (live, or nested in a view-change message) is its
        view's leader's certified proposal of this content for its slot."""
        issuer = self.config.leader_of(order.view)
        return order.sender == issuer and self.cert_binds(
            order.cert, issuer, Order.counter(order.view), order.seq,
            Order.content_digest(order.view, order.seq, order.request.digest(), order.grants),
        )

    # -- secure client channels (baseline deployment) ----------------------------

    def register_client_channel(self, client_id: str, endpoint: TlsEndpoint) -> None:
        """Install the server-side TLS endpoint for ``client_id``."""
        self._client_endpoints[client_id] = endpoint

    # -- outbound -----------------------------------------------------------------

    def _send(self, dst: str, msg, **what) -> None:
        """``what`` names what the message carries (``seq=``, ``client=``
        and ``rid=``, ...) for whoever reads ``proto.send``."""
        if self.probe.on:
            self.probe.event("proto.send", self.replica_id, msg, dst=dst, **what)
        self.net.send(self.node.name, dst, msg)

    def _broadcast(self, msg, **what) -> None:
        for rid in self._peers:
            self._send(rid, msg, **what)

    # -- tagged (non-counter) messages: one way out, one way in --------------------

    def _tagged(self, msg) -> Tagged:
        """Wrap with a troxy-group HMAC tag (checkpoint-class messages)."""
        key = self.keyring.troxy_instance(self.replica_id)
        return Tagged(msg, self.replica_id, key.sign(msg.auth_bytes()))

    def send_tagged(self, msg, dst=None, size=None, extra: float = 0.0, **what):
        """Charge send + one MAC (+ ``extra``) in one core occupancy, tag
        ``msg`` and send it to ``dst``: a node, :attr:`LEADER`, or None
        for every peer. ``size`` overrides the charged size (a Forward
        is charged on the request it wraps)."""
        size = msg.wire_size if size is None else size
        yield from self.node.compute(self._tx_cost(size) + self._mac_cost_const + extra)
        tagged = self._tagged(msg)
        if dst is None:
            self._broadcast(tagged, **what)
        else:
            self._send(self.leader_id if dst is self.LEADER else dst, tagged, **what)

    def open_tagged(self, tagged: Tagged, extra: float = 0.0):
        """The one tagged-message check. Charges receive + one MAC (+
        ``extra``) in one core occupancy; returns the inner message if a
        group member sent it, it names that same sender, and the tag
        verifies under the sender's key, else counts it invalid and
        returns None. Without the sender comparison one replica could
        vote f+1 times on a checkpoint under its own valid tag."""
        yield from self.node.compute(self._rx_cost(tagged.wire_size) + self._mac_cost_const + extra)
        msg, sender = tagged.msg, tagged.sender
        if (
            sender in self.config.replica_ids
            and msg.sender == sender
            and self.keyring.troxy_instance(sender).verify(msg.auth_bytes(), tagged.tag)
        ):
            return msg
        self.stats.invalid_messages += 1
        return None

    # -- main loops ------------------------------------------------------------------

    def stop(self) -> None:
        """Take the replica out of service (crash, for fault injection)."""
        self._stopped = True
        self.node.crash()

    def restart(self) -> None:
        """Recover a crashed replica: rejoin with an empty volatile state.

        The trusted counters survived (sealed storage); the log and app
        state are rebuilt via state transfer + normal ordering."""
        self.node.recover()
        self.net.reset_streams(self.node.name)
        self._stopped = False
        self._view_change_pending = None
        self._abandon_admitted()
        self.viewchange.rearm()
        if self._owns_inbox:
            self._loop_generation += 1
            self.env.process(
                self._message_loop(self._loop_generation),
                name=f"{self.replica_id}:loop",
            )
        self.viewchange.start()
        if self.batching is not None:
            self.batching.start()
        self.env.process(
            self.checkpoint.request_state(probe=True), name=f"{self.replica_id}:catchup"
        )

    def _message_loop(self, generation: int):
        while not self._stopped:
            msg = yield self.node.inbox.get()
            self.dispatch(msg.payload)  # a no-op while stopped
            if generation != self._loop_generation:
                # A restart spawned a fresh loop; hand over after
                # dispatching the message this stale loop consumed.
                return

    def dispatch(self, payload) -> None:
        """Handle one protocol message in its own process.

        Public so a Troxy host owning the node's inbox can hand protocol
        traffic to the co-located replica.
        """
        if self._stopped:
            return
        Process(self.env, self._handle(payload), name=self._handle_name)

    def _handle(self, payload):
        kind = type(payload)
        handler = self._handlers.get((Tagged, type(payload.msg)) if kind is Tagged else kind)
        if handler is None:
            self.stats.invalid_messages += 1
        else:
            yield from handler(payload)

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
        lock = self._channel_locks.get(body.client_id)
        if lock is None:
            lock = self._channel_locks[body.client_id] = Resource(self.env, 1)
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
                yield from self.reply_sink(request, cached, False)
            if relay:
                # Retransmission through a (possibly new) contact point:
                # fan out so every replica re-emits its cached reply to the
                # request's current origin (needed for Troxy failover).
                # Named per request: it stays attributable in the trace
                # once batching aggregates the ordering records.
                yield from self.send_tagged(
                    Forward(request, self.replica_id), size=request.wire_size,
                    client=request.client_id, rid=request.request_id,
                )
            return
        if self._view_change_pending is not None:
            return  # drop during view change; clients retransmit
        if self.is_leader:
            if (request.client_id, request.request_id) in self._inflight:
                return
            self._inflight.add((request.client_id, request.request_id))
            if self.leasing is not None and (yield from self.leasing.park_write(request)):
                return
            yield from self._admit(request)
        elif relay:
            yield from self.send_tagged(
                Forward(request, self.replica_id), self.LEADER, size=request.wire_size,
                client=request.client_id, rid=request.request_id,
            )
            self.viewchange.note_progress_needed()
        else:
            self.viewchange.note_progress_needed()

    def _admit(self, request: Request):
        """Hand an admitted request to ordering: straight into a slot, or
        into the batch pipeline. A plain function returning an iterable:
        the unbatched path gains no frame."""
        if self.batching is None:
            return self._order(request)
        self.batching.enqueue(request)
        return ()

    def _abandon_admitted(self) -> None:
        """View change / restart: forget requests admitted but not yet
        ordered (batch backlog, writes parked behind a lease) so client
        retransmissions can be ordered again later."""
        if self.batching is not None:
            self.batching.drop_backlog()
        if self.leasing is not None:
            self.leasing.drop_parked()

    def _handle_forward(self, tagged: Tagged):
        forward = yield from self.open_tagged(tagged)
        if forward is not None:
            # relay=False: a Forward must never trigger another relay,
            # whether it carries a fresh request (to the leader) or a
            # retransmission fan-out (to everyone).
            yield from self.submit(forward.request, relay=False)

    # -- ordering: leader ------------------------------------------------------------------

    def _order(self, payload):
        """Assign the next slot to ``payload`` (a Request, or a Batch of
        requests when batching cut a multi-request batch) and broadcast
        the counter-certified ORDER. One certification per slot — that
        amortization is the point of batching."""
        if not self.is_leader:
            return
        probe = self.probe
        token = probe.begin("hybster.order", self.node.name, payload) if probe.on else None
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
                if self.batching is not None:
                    self.batching.slot_opened(seq)
                payload_digest = payload.digest()
                # Pending lease grants ride this slot: they become part
                # of the certified content, so the untrusted host cannot
                # strip or alter them in a relayed ORDER (docs/READS.md).
                grants = () if self.leasing is None else self.leasing.grants_for_slot(seq)
                content = Order.content_digest(self.view, seq, payload_digest, grants)
                if probe.on:
                    # The crossing carries (counter, value, digest) only:
                    # say whose slot this node certifies meanwhile.
                    probe.event("hybster.certify", self.node.name, payload)
                cert = yield from self.certify(
                    "certify_order", Order.counter(self.view), seq, content
                )
            finally:
                if probe.on:
                    probe.event("hybster.certified", self.node.name)
                self._order_lock.release()
            order = Order(self.view, seq, payload, cert, self.replica_id, grants)
            entry = self._install_order(order)
            entry.commit_senders[self.replica_id] = cert  # the ORDER is the leader's commit
            yield from self.node.compute(self._tx_cost(order.wire_size))
            self._broadcast(order, seq=seq)
            self.stats.orders_sent += 1
            self.viewchange.note_progress_needed()
            self._maybe_committed(seq)
        finally:
            if token is not None:
                probe.end(token, seq=seq)

    def _install_order(self, order: Order) -> LogEntry:
        """Install an order into its log slot, maintaining the backlog count."""
        entry = self.log.get(order.seq)
        if entry is None:
            entry = self.log[order.seq] = LogEntry()
        if entry.order is None and not entry.executed:
            self._unexec_ordered += 1
        entry.order = order
        if order.grants and self.leasing is not None:
            self.leasing.observe(order.grants)
        return entry

    # -- ordering: follower -------------------------------------------------------------------

    def _handle_order(self, order: Order):
        yield from self.node.compute(self._rx_cost(order.wire_size) + self._mac_cost_const)
        if order.view != self.view or self._view_change_pending is not None:
            return
        if order.seq < self.next_exec:
            return  # slot already executed locally
        if not self.order_binds(order):
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
        entry = self.log.get(order.seq)
        if entry is None or entry.order is None:
            entry = self._install_order(order)
        entry.commit_senders[order.sender] = order.cert
        request_digest = order.request.digest()
        content = Commit.content_digest(order.view, order.seq, request_digest, self.replica_id)
        cert = yield from self.certify(
            "certify_commit", Commit.counter(self.view), order.seq, content
        )
        commit = Commit(order.view, order.seq, request_digest, cert, self.replica_id)
        entry.commit_senders[self.replica_id] = cert
        yield from self.node.compute(self._tx_cost(commit.wire_size))
        self._broadcast(commit, seq=order.seq)
        self.stats.commits_sent += 1
        self.viewchange.note_progress_needed()
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
        yield from self.node.compute(
            self._hash_base + self._hash_per_byte * commit.wire_size
            + self._mac_cost_const
        )
        if self._commit_is_moot(commit):
            return  # the view or the slot moved on while the core was held
        expected = Commit.content_digest(
            commit.view, commit.seq, commit.request_digest, commit.sender
        )
        if not self.cert_binds(
            commit.cert, commit.sender, Commit.counter(commit.view), commit.seq, expected
        ):
            self.stats.invalid_messages += 1
            return
        entry = self.log.get(commit.seq)
        if entry is None:
            entry = self.log[commit.seq] = LogEntry()
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
            if self.probe.on:
                self.probe.event("hybster.commit", self.node.name, entry.order.request, seq=seq)
            if self.batching is not None:
                self.batching.slot_committed(seq)
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
                    self.checkpoint.truncate_log()

    def _execute_entry(self, seq: int, entry: LogEntry):
        entry.executed = True
        self._unexec_ordered -= 1
        request = entry.order.request
        if type(request) is Batch:
            yield from self._execute_batch(seq, request)
        elif request.client_id != NOOP_REQUEST_CLIENT:
            yield from self._execute_request(seq, request, emit=True)
        if entry.order.grants and self.leasing is not None:
            # Leases activate only when their carrying slot *executes*:
            # every earlier write has already invalidated the holder's
            # cache, so activation can never expose a pre-write entry.
            yield from self.leasing.sink(entry.order.grants)
        self.viewchange.progress_made()
        if seq % self.config.checkpoint_interval == 0:
            yield from self.checkpoint.emit(seq)

    def _execute_batch(self, seq: int, batch: Batch):
        """Execute every entry of a batched slot in order, then hand all
        (request, reply) pairs to the batch sink in one call — the sink
        must make no reply visible before it has invalidated every key
        the batch wrote (fast-read freshness)."""
        pairs = []
        for request in batch.requests:
            if request.client_id != NOOP_REQUEST_CLIENT:
                reply = yield from self._execute_request(seq, request, emit=False)
                pairs.append((request, reply))
        if pairs:
            yield from self.batch_reply_sink(pairs)

    def _execute_request(self, seq: int, request: Request, emit: bool):
        """Execute one ordered request and record it for duplicate
        suppression; returns the reply. With ``emit`` the reply goes to
        the reply sink inside the execute span (an unbatched slot); a
        batch collects its replies for one sink call instead."""
        probe = self.probe
        token = None
        if probe.on:
            token = probe.begin("hybster.execute", self.node.name, request, seq=seq)
        try:
            yield from self.node.compute(self.app.execution_cost(request.op))
            reply = self._reply_to(request, self.app.execute(request.op))
            self._executed_requests[request.client_id] = request.request_id
            self._last_reply[request.client_id] = reply
            self._inflight.discard((request.client_id, request.request_id))
            self.stats.executions += 1
            if probe.on:
                # Logged when the state machine ran; the span above also
                # covers handing the reply to its sink.
                probe.event("proto.execute", self.replica_id, request, seq=seq)
            if emit:
                yield from self.reply_sink(request, reply, True)
            return reply
        finally:
            if token is not None:
                probe.end(token)

    def _reply_to(self, request: Request, result: Payload) -> Reply:
        return Reply(
            replica_id=self.replica_id,
            client_id=request.client_id,
            request_id=request.request_id,
            result=result,
            request_digest=request.digest(),
            view=self.view,
        )

    def _default_batch_reply_sink(self, pairs):
        """Baseline deployment: batched replies are independent sends."""
        for request, reply in pairs:
            yield from self.reply_sink(request, reply, True)

    def _execute_unordered_read(self, request: Request):
        """The PBFT-like read optimization: execute against current state."""
        self.stats.unordered_reads += 1
        yield from self.node.compute(self.app.execution_cost(request.op))
        reply = self._reply_to(request, self.app.execute_read(request.op))
        yield from self.reply_sink(request, reply, True)

    def _default_reply_sink(self, request: Request, reply: Reply, fresh: bool = True):
        """Baseline deployment: seal the reply for the client and send it."""
        endpoint = self._client_endpoints.get(request.client_id)
        if endpoint is None:
            return
        yield from self.node.compute(self.profile.aead_cost(reply.wire_size))
        envelope = seal_body(endpoint, reply)
        if self.probe.on:
            self.probe.event("proto.reply", self.replica_id, reply, dst=request.origin)
        # Baseline replies ride the shared library connection to the
        # client machine (one client-side library process per machine).
        self.net.send(self.node.name, request.origin, envelope)
