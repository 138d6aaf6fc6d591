"""The traditional client-side BFT library (the baseline, "BL").

This is exactly the functionality Troxy relocates to the server side
(Section I): connection handling to every replica, request distribution,
and majority voting over the received replies. Running it costs the
client machine CPU (TLS for each replica channel, reply verification)
and access-link bandwidth (n requests out, n replies in) — the overheads
the paper's WAN experiments expose.

Several logical clients share one :class:`ClientMachine` (the testbed
used two physical client machines), which owns the node, demultiplexes
incoming replies, and charges the per-machine TLS costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..apps.base import Operation, Payload
from ..crypto.costs import RuntimeProfile, profile as cost_profile
from ..crypto.keys import KeyRing
from ..crypto.tls import TlsError, establish_session
from ..sim.engine import Environment
from ..sim.network import Network, Node
from ..sim.resources import Store
from .config import ClusterConfig
from .messages import Reply, Request
from .secure import SecureEnvelope, open_body, seal_body


@dataclass(slots=True, init=False)
class InvokeResult:
    """Outcome of one client operation."""

    result: Payload
    latency: float
    retries: int = 0
    read_conflict: bool = False
    ordered: bool = True

    def __init__(self, result, latency, retries=0, read_conflict=False, ordered=True):
        self.result = result
        self.latency = latency
        self.retries = retries
        self.read_conflict = read_conflict
        self.ordered = ordered


@dataclass
class ClientStats:
    invocations: int = 0
    retransmissions: int = 0
    read_conflicts: int = 0
    replies_received: int = 0
    invalid_replies: int = 0


class ClientMachine:
    """One physical client host: shared NIC, CPU, and reply dispatch."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        node: Node,
        runtime: str = "java",
        owns_inbox: bool = True,
    ):
        self.env = env
        self.net = net
        self.node = node
        self.profile: RuntimeProfile = cost_profile(runtime)
        self._client_inboxes: dict[str, Store] = {}
        if owns_inbox:
            env.process(self._dispatch_loop(), name=f"{node.name}:dispatch")

    def register(self, client_id: str) -> Store:
        inbox = Store(self.env)
        self._client_inboxes[client_id] = inbox
        return inbox

    def deliver(self, msg) -> None:
        """Route one network message to the owning logical client.

        Used directly by co-located components (e.g. the Prophecy
        middlebox) that own the node's inbox themselves.
        """
        payload = msg.payload
        if isinstance(payload, SecureEnvelope) and isinstance(payload.body, Reply):
            inbox = self._client_inboxes.get(payload.body.client_id)
            if inbox is not None:
                inbox.put(payload)

    def _dispatch_loop(self):
        while True:
            msg = yield self.node.inbox.get()
            self.deliver(msg)


class BftClient:
    """One logical baseline client with the full client-side library."""

    def __init__(
        self,
        machine: ClientMachine,
        client_id: str,
        config: ClusterConfig,
        keyring: KeyRing,
        read_optimization: bool = True,
        request_distribution: str = "leader",
    ):
        if request_distribution not in ("leader", "all"):
            raise ValueError(
                f"request_distribution must be 'leader' or 'all': {request_distribution!r}"
            )
        self.machine = machine
        self.env = machine.env
        self.net = machine.net
        self.node = machine.node
        self.client_id = client_id
        self.config = config
        self.keyring = keyring
        self.read_optimization = read_optimization
        # "leader": ordered requests go to the current leader only (the
        # paper's microbenchmark setup); "all": PBFT-style multicast to
        # every replica. Unordered reads always go to every replica.
        self.request_distribution = request_distribution
        self.stats = ClientStats()
        self._request_id = 0
        self._view_hint = 0
        self._endpoints: dict[str, object] = {}
        self._inbox = machine.register(client_id)
        # Replies are demultiplexed to per-request stores by a single
        # library thread: concurrent invocations (e.g. the Prophecy
        # middlebox drives one library instance from many server
        # threads) never steal each other's replies, and TLS records
        # are opened strictly in arrival order.
        self._reply_stores: dict[int, Store] = {}
        self.env.process(self._demux_loop(), name=f"{client_id}:demux")

    # -- connection handling ---------------------------------------------------

    def connect(self, replicas) -> None:
        """Establish a secure channel to every replica (BFT clients must
        know and reach the full replica set)."""
        for replica in replicas:
            session = establish_session(
                self.keyring.tls_master(replica.replica_id),
                self.client_id,
                replica.replica_id,
            )
            self._endpoints[replica.replica_id] = session.client
            replica.register_client_channel(self.client_id, session.server)

    # -- invocation --------------------------------------------------------------

    def invoke(self, op: Operation):
        """Process generator: run one operation to a trusted result.

        Reads go down the unordered fast path when ``read_optimization``
        is enabled, falling back to ordering on conflict — the PBFT-like
        scheme the paper uses for the baseline.
        """
        start = self.env.now
        self.stats.invocations += 1
        if op.is_read and self.read_optimization:
            result = yield from self._invoke_unordered(op)
            if result is not None:
                return InvokeResult(result, self.env.now - start, ordered=False)
            self.stats.read_conflicts += 1
            result, retries = yield from self._invoke_ordered(op)
            return InvokeResult(
                result, self.env.now - start, retries=retries,
                read_conflict=True, ordered=True,
            )
        result, retries = yield from self._invoke_ordered(op)
        return InvokeResult(result, self.env.now - start, retries=retries, ordered=True)

    def _next_request(self, op: Operation, unordered: bool) -> Request:
        self._request_id += 1
        return Request(
            client_id=self.client_id,
            request_id=self._request_id,
            op=op,
            origin=self.node.name,
            unordered=unordered,
        )

    def _distribute(self, request: Request, targets=None):
        """Seal and send the request to the given replicas (default all)."""
        for replica_id, endpoint in self._endpoints.items():
            if targets is not None and replica_id not in targets:
                continue
            yield from self.node.compute(self.machine.profile.aead_cost(request.wire_size))
            envelope = seal_body(endpoint, request)
            # The client-side library is one process per machine: all its
            # logical clients share one TCP connection per replica
            # (stream=None = per-pair). Under WAN jitter this costs real
            # head-of-line blocking — a burden Troxy's per-client
            # connections do not carry.
            self.net.send(self.node.name, replica_id, envelope)

    def _ordered_targets(self, retries: int):
        """Where to send an ordered request: the presumed leader first;
        after a timeout, everyone (the PBFT retransmission rule, which
        also lets followers detect a dead leader)."""
        if self.request_distribution == "all" or retries > 0:
            return None  # everyone
        return {self.config.leader_of(self._view_hint)}

    def _invoke_ordered(self, op: Operation):
        request = self._next_request(op, unordered=False)
        retries = 0
        yield from self._distribute(request, self._ordered_targets(retries))
        while True:
            reply = yield from self._await_quorum(
                request, needed=self.config.reply_quorum,
                timeout=self.config.request_timeout,
            )
            if reply is not None:
                if reply.view > self._view_hint:
                    self._view_hint = reply.view
                return reply.result, retries
            retries += 1
            self.stats.retransmissions += 1
            self._view_hint += 1  # suspect the leader
            yield from self._distribute(request, self._ordered_targets(retries))

    def query_one(self, op: Operation, replica_id: str, timeout: float) -> Optional[Reply]:
        """Ask one replica for an unordered read (Prophecy's validation
        probe). Returns its reply or None on timeout. No voting — the
        caller owns whatever consistency argument justifies this."""
        request = self._next_request(op, unordered=True)
        endpoint = self._endpoints[replica_id]
        yield from self.node.compute(self.machine.profile.aead_cost(request.wire_size))
        self.net.send(self.node.name, replica_id, seal_body(endpoint, request))
        return (yield from self._await_quorum(request, needed=1, timeout=timeout))

    def _invoke_unordered(self, op: Operation) -> Optional[Payload]:
        """The read optimization: returns None on conflict/timeout."""
        request = self._next_request(op, unordered=True)
        yield from self._distribute(request)
        reply = yield from self._await_quorum(
            request, needed=self.config.read_quorum,
            timeout=self.config.request_timeout, conflict_detect=True,
        )
        if reply is None:
            return None
        return reply.result

    def _demux_loop(self):
        """The library's receive thread: verify each incoming reply and
        hand it to the invocation waiting for it."""
        while True:
            envelope = yield self._inbox.get()
            reply = yield from self._open_reply(envelope)
            if reply is None:
                continue
            store = self._reply_stores.get(reply.request_id)
            if store is not None:
                store.put(reply)
            # else: stale reply from a finished (retransmitted) op - drop

    def _next_reply(self, store: Store, deadline: float) -> Optional[Reply]:
        remaining = deadline - self.env.now
        if remaining <= 0:
            return None
        get_event = store.get()
        yield self.env.any_of([get_event, self.env.timeout(remaining)])
        if not get_event.triggered:
            store.cancel(get_event)
            return None
        return get_event.value

    def _await_quorum(
        self,
        request: Request,
        needed: int,
        timeout: float,
        conflict_detect: bool = False,
    ) -> Optional[Reply]:
        """Collect replies for ``request`` until ``needed`` match.

        Returns the winning reply, or None on timeout — or, with
        ``conflict_detect``, as soon as the first ``needed`` replies
        disagree (the optimistic read failed; Section VI-D).
        """
        votes: dict[bytes, list[Reply]] = {}
        voters: set[str] = set()
        deadline = self.env.now + timeout
        store = self._reply_stores.setdefault(request.request_id, Store(self.env))
        try:
            while True:
                reply = yield from self._next_reply(store, deadline)
                if reply is None:
                    return None
                if reply.request_digest != request.digest():
                    continue
                if reply.replica_id in voters:
                    continue
                voters.add(reply.replica_id)
                self.stats.replies_received += 1
                bucket = votes.setdefault(reply.result_digest(), [])
                bucket.append(reply)
                if len(bucket) >= needed:
                    return bucket[0]
                if conflict_detect and len(voters) >= needed:
                    # The optimistic read takes the FIRST f+1 replies; if
                    # they are not identical, the optimization failed and
                    # the read must be ordered. Waiting for stragglers
                    # would serialize behind the slowest replica and
                    # still race further writes.
                    return None
        finally:
            self._reply_stores.pop(request.request_id, None)

    def _open_reply(self, envelope: SecureEnvelope) -> Optional[Reply]:
        reply = envelope.body
        endpoint = self._endpoints.get(reply.replica_id)
        if endpoint is None:
            self.stats.invalid_replies += 1
            return None
        yield from self.node.compute(self.machine.profile.aead_cost(envelope.wire_size))
        try:
            open_body(endpoint, envelope)
        except TlsError:
            self.stats.invalid_replies += 1
            return None
        return reply
