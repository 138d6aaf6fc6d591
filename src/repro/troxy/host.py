"""The untrusted replica-side part of Troxy.

Owns the node's network endpoint: accepts client connections, shuttles
buffers across the enclave boundary, transmits whatever the trusted
core tells it to, and hands protocol traffic to the co-located Hybster
replica. It *cannot* read session keys, forge Troxy authentications, or
alter sealed replies — the fault-injection tests exercise exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..crypto.tls import TlsEndpoint
from ..hybster.messages import Reply, Request
from ..hybster.replica import Replica
from ..hybster.secure import SecureEnvelope
from ..sgx.enclave import Enclave
from ..sim.engine import Environment, Process
from ..sim.network import Network, Node
from .core import Action, TroxyCore
from .messages import (
    BatchedReply,
    CacheEntryReply,
    CacheQuery,
    ForwardedRequest,
    LeaseRequest,
    LeaseRevoke,
    LeaseRevokeAck,
    ShardFastReply,
)

#: ecalls the host registers on the enclave; together with Hybster's
#: three trusted-subsystem certify calls this fills the prototype's
#: 16-entry interface (16 in total).
TROXY_ECALLS = (
    "install_session",
    "handle_client_envelope",
    "answer_cache_query",
    "handle_cache_entry_reply",
    "fast_read_timeout",
    "authenticate_local_reply",
    "authenticate_batch_replies",
    "handle_replica_reply",
    "handle_replica_reply_batch",
    "handle_forwarded_request",
    "handle_shard_fast_reply",
    "install_leases",
    "handle_lease_revoke",
)


@dataclass
class TroxyHostStats:
    """Messages the host dropped *before* the enclave crossing because
    they could no longer change a decision (DESIGN.md D9)."""

    #: replica replies for a request the enclave holds no voter record
    #: for: the surplus side of an f+1-of-2f+1 reply quorum.
    surplus_votes: int = 0
    #: cache-probe answers for a fast read that is already resolved.
    surplus_probe_replies: int = 0


class TroxyHost:
    """Untrusted message pump around one TroxyCore.

    The host filters surplus messages itself: it remembers which
    requests its enclave opened a voter record for and which fast-read
    probes are outstanding, and spares everything else the crossing.
    The filter is advisory and untrusted. Dropping messages is a power
    the host has anyway, so a wrong filter costs liveness (the legacy
    client times out and fails over) and never a wrong reply: every vote
    that does cross is still authenticated and counted inside.
    """

    def __init__(
        self,
        env: Environment,
        net: Network,
        node: Node,
        replica: Replica,
        core: TroxyCore,
        enclave: Enclave,
        query_timeout: float = 0.1,
    ):
        self.env = env
        self.net = net
        self.node = node
        self.replica = replica
        self.core = core
        self.enclave = enclave
        self.query_timeout = query_timeout
        # Optional observability plane (repro.obs): brackets each pumped
        # message with a troxy.host span.
        self.obs = None
        for name in TROXY_ECALLS:
            enclave.register_ecall(name, getattr(core, name))
        replica.reply_sink = self._local_reply_sink
        replica.batch_reply_sink = self._local_batch_reply_sink
        if replica.leasing is not None:
            # Executed slots hand their lease grants to the enclave, and
            # a leader revoking its own co-located Troxy's lease calls
            # straight into the ecall instead of sending to itself.
            replica.leasing.sink = self._lease_sink
            replica.leasing.revoke_sink = self._lease_revoke_local
        self._stopped = False
        self.stats = TroxyHostStats()
        # client id -> the request id the enclave holds a voter record
        # for. One entry per client session: a legacy client has one
        # request outstanding, which the replicas' duplicate suppression
        # assumes as well.
        self._open: dict[str, int] = {}
        # Outstanding fast-read probes, nonce -> deadline. Every probe
        # waits the same ``query_timeout``, so insertion order is
        # deadline order and one sweeper process serves them all.
        self._probes: dict[int, float] = {}
        self._sweeping = False
        # Process names are precomputed: one handler process is spawned
        # per inbound message, and building the f-string each time shows
        # up on the message-pump hot path.
        self._handle_name = f"{node.name}:troxy-handle"
        self._qtimer_name = f"{node.name}:qtimer"
        env.process(self._loop(), name=f"{node.name}:troxy-host")

    @property
    def replica_id(self) -> str:
        return self.replica.replica_id

    def stop(self) -> None:
        """Crash the whole server (replica + Troxy)."""
        self._stopped = True
        self.replica.stop()

    def restart(self) -> None:
        """Bring a crashed server back (fault-injection recovery path).

        The co-located replica rejoins via state transfer; the Troxy
        resumes pumping messages. Client TLS sessions installed in the
        enclave survive unless the enclave itself was rebooted. Probe
        deadlines that fell due while the host was down run now, so
        their reads still fall back to ordering; the open-request table
        starts empty (a vote it then drops belonged to a request whose
        client has long failed over).
        """
        self._stopped = False
        self._open.clear()
        self.replica.restart()
        self._arm_sweeper()

    def install_client_session(self, client_id: str, endpoint: TlsEndpoint):
        """Process generator: hand a negotiated session key to the core."""
        yield from self.enclave.ecall(
            "install_session", client_id, endpoint, bytes_in=64
        )

    # -- message pump ----------------------------------------------------------

    def _loop(self):
        inbox = self.node.inbox
        env = self.env
        name = self._handle_name
        while True:
            msg = yield inbox.get()
            if self._stopped:
                continue
            # Without an obs plane the span wrapper is a dead generator
            # frame on every hop; dispatch straight into the handler.
            if self.obs is None:
                Process(env, self._handle_inner(msg.payload, msg.src), name=name)
            else:
                Process(env, self._handle(msg.payload, msg.src), name=name)

    def _handle(self, payload, src: str):
        span = None
        if self.obs is not None:
            span = self.obs.host_begin(self, payload, src)
        try:
            yield from self._handle_inner(payload, src)
        finally:
            if span is not None:
                self.obs.host_end(span)

    def _handle_inner(self, payload, src: str):
        if isinstance(payload, SecureEnvelope) and isinstance(payload.body, Request):
            action = yield from self.enclave.ecall(
                "handle_client_envelope", payload, src,
                bytes_in=payload.wire_size,
            )
            yield from self._act(action)
        elif isinstance(payload, CacheQuery):
            action = yield from self.enclave.ecall(
                "answer_cache_query", payload, bytes_in=payload.wire_size
            )
            yield from self._act(action)
        elif isinstance(payload, CacheEntryReply):
            if payload.nonce not in self._probes:
                self.stats.surplus_probe_replies += 1
                return
            action = yield from self.enclave.ecall(
                "handle_cache_entry_reply", payload, bytes_in=payload.wire_size
            )
            if action.kind not in ("wait", "drop"):
                # Hit, conflict or shard verdict: the probe is resolved.
                # A rejected answer leaves it outstanding — a forged
                # CacheEntryReply must not cancel the timeout.
                self._probes.pop(payload.nonce, None)
            yield from self._act(action)
        elif isinstance(payload, Reply):
            if self._open.get(payload.client_id) != payload.request_id:
                self.stats.surplus_votes += 1
                return
            action = yield from self.enclave.ecall(
                "handle_replica_reply", payload, bytes_in=payload.wire_size
            )
            yield from self._act(action)
        elif isinstance(payload, BatchedReply):
            is_open = self._open.get
            if not any(
                is_open(reply.client_id) == reply.request_id
                for reply in payload.replies
            ):
                self.stats.surplus_votes += len(payload.replies)
                return
            actions = yield from self.enclave.ecall(
                "handle_replica_reply_batch", payload, bytes_in=payload.wire_size
            )
            for action in actions:
                yield from self._act(action)
        elif isinstance(payload, ForwardedRequest):
            action = yield from self.enclave.ecall(
                "handle_forwarded_request", payload, bytes_in=payload.wire_size
            )
            yield from self._act(action)
        elif isinstance(payload, ShardFastReply):
            action = yield from self.enclave.ecall(
                "handle_shard_fast_reply", payload, bytes_in=payload.wire_size
            )
            yield from self._act(action)
        elif isinstance(payload, LeaseRequest) and self.replica.leasing is not None:
            yield from self.replica.leasing.handle_request(payload)
        elif isinstance(payload, LeaseRevoke):
            action = yield from self.enclave.ecall(
                "handle_lease_revoke", payload, bytes_in=payload.wire_size
            )
            yield from self._act(action)
        elif isinstance(payload, LeaseRevokeAck) and self.replica.leasing is not None:
            yield from self.replica.leasing.handle_ack(payload)
        else:
            self.replica.dispatch(payload)

    def _act(self, action: Optional[Action]):
        if action is None:
            return
            yield  # pragma: no cover - generator marker
        if action.lease is not None:
            # Fire-and-forget lease (renewal) request piggybacked on the
            # main action: route it to the current group leader.
            leader = self.replica.leader_id
            if leader == self.replica_id:
                yield from self.replica.leasing.handle_request(action.lease)
            else:
                self.net.send(self.node.name, leader, action.lease)
        if action.kind in ("wait", "drop"):
            return
        if action.kind == "reply":
            # The client has its answer: whatever was open for it is
            # decided, later votes are surplus.
            client_id = action.envelope.body.client_id
            self._open.pop(client_id, None)
            self.net.send(
                self.node.name, action.dst, action.envelope, stream=client_id
            )
        elif action.kind == "order":
            request = action.request
            if request.origin == self.replica_id:
                # The enclave registered a voter record (also on a client
                # retransmission, which re-opens a decided request so the
                # replayed replies reach the voter again).
                self._open[request.client_id] = request.request_id
            yield from self.replica.submit(request)
        elif action.kind == "query":
            for replica_id, query in action.queries:
                self.net.send(self.node.name, replica_id, query)
            self._probes[action.nonce] = self.env.now + self.query_timeout
            self._arm_sweeper()
        elif action.kind == "send_cache_reply":
            self.net.send(self.node.name, action.dst, action.queries[0])
        elif action.kind == "send_reply":
            self.net.send(self.node.name, action.dst, action.reply)
        elif action.kind == "send_reply_batch":
            self.net.send(self.node.name, action.dst, action.batch)
        elif action.kind == "forward":
            request = action.forward.request
            if request.origin == self.replica_id:
                # Votes converge here; a straggler merely passed along
                # has its voter record at its own fronting Troxy.
                self._open[request.client_id] = request.request_id
            self.net.send(self.node.name, action.dst, action.forward)
        elif action.kind == "send_shard_reply":
            self.net.send(self.node.name, action.dst, action.shard_reply)
        elif action.kind == "send_lease_ack":
            if action.dst == self.replica_id:
                # Revoking leader is this very replica: deliver locally.
                yield from self.replica.leasing.handle_ack(action.lease_ack)
            else:
                self.net.send(self.node.name, action.dst, action.lease_ack)
        elif action.kind == "deliver_local":
            follow_up = yield from self.enclave.ecall(
                "handle_replica_reply", action.reply, bytes_in=action.reply.wire_size
            )
            yield from self._act(follow_up)
        else:
            raise ValueError(f"unknown action kind: {action.kind!r}")

    def _arm_sweeper(self) -> None:
        if self._probes and not self._sweeping:
            self._sweeping = True
            self.env.process(self._sweep_probes(), name=self._qtimer_name)

    def _sweep_probes(self):
        """The host's one probe-deadline process: sleep until the oldest
        outstanding probe falls due, time it out if it is still
        outstanding then, repeat. Exits when nothing is outstanding, or
        when the host is stopped — due probes then stay queued and
        ``restart()`` re-arms the sweeper."""
        probes = self._probes
        while probes and not self._stopped:
            nonce = next(iter(probes))
            remaining = probes[nonce] - self.env.now
            if remaining > 0:
                yield self.env.timeout(remaining)
                continue
            del probes[nonce]
            # Own process per expiry: a fallback ordering may queue on
            # the replica and must not hold up the deadlines behind it.
            self.env.process(self._probe_expired(nonce), name=self._qtimer_name)
        self._sweeping = False

    def _probe_expired(self, nonce: int):
        action = yield from self.enclave.ecall("fast_read_timeout", nonce)
        yield from self._act(action)

    def _local_reply_sink(self, request: Request, reply: Reply, fresh: bool = True):
        """Installed as the co-located replica's reply sink."""
        action = yield from self.enclave.ecall(
            "authenticate_local_reply", request, reply, fresh,
            bytes_in=reply.wire_size,
        )
        yield from self._act(action)

    def _local_batch_reply_sink(self, pairs):
        """Installed as the co-located replica's batched reply sink: one
        enclave crossing invalidates and authenticates the whole batch."""
        actions = yield from self.enclave.ecall(
            "authenticate_batch_replies", pairs, True,
            bytes_in=sum(reply.wire_size for _request, reply in pairs),
        )
        for action in actions:
            yield from self._act(action)

    # -- lease plumbing (docs/READS.md) -----------------------------------------

    def _lease_sink(self, grants):
        """Installed as the replica's lease sink: an executed slot
        carried grants, hand the ones addressed to this Troxy to the
        enclave (one crossing for the whole slot)."""
        mine = tuple(g for g in grants if g.holder == self.replica_id)
        if not mine:
            return
            yield  # pragma: no cover - generator marker
        action = yield from self.enclave.ecall(
            "install_leases", mine,
            bytes_in=sum(grant.wire_size for grant in mine),
        )
        yield from self._act(action)

    def _lease_revoke_local(self, revoke: LeaseRevoke):
        """Installed as the replica's local revoke sink: the leader is
        revoking its own co-located Troxy's lease — no network hop."""
        action = yield from self.enclave.ecall(
            "handle_lease_revoke", revoke, bytes_in=revoke.wire_size
        )
        yield from self._act(action)
