"""The untrusted replica-side part of Troxy.

Owns the node's network endpoint: accepts client connections, shuttles
buffers across the enclave boundary, transmits whatever the trusted
core tells it to, and hands protocol traffic to the co-located Hybster
replica. It *cannot* read session keys, forge Troxy authentications, or
alter sealed replies — the fault-injection tests exercise exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..crypto.tls import TlsEndpoint
from ..hybster.messages import Reply, Request
from ..hybster.replica import Replica
from ..hybster.secure import SecureEnvelope
from ..sgx.enclave import Enclave
from ..sim.engine import Environment, Process
from ..sim.network import Network, Node
from ..sim.probe import Probe
from .core import Action, TroxyCore
from .messages import BatchedReply, CacheEntryReply, LeaseRequest, LeaseRevoke, LeaseRevokeAck


def _wire_size(held: tuple) -> int:
    """Bytes the held vote messages add to a crossing's copy-in."""
    return sum(message.wire_size for message in held) if held else 0


@dataclass
class TroxyHostStats:
    """Messages the host kept from their own enclave crossing because
    they could not change a decision: too late (DESIGN.md D9) or too
    early (D12)."""

    #: replica replies for a request the enclave holds no voter record
    #: for: the surplus side of an f+1-of-2f+1 reply quorum.
    surplus_votes: int = 0
    #: cache-probe answers for a fast read that is already resolved.
    surplus_probe_replies: int = 0
    #: replica votes that waited at the host on arrival because they
    #: could not complete a quorum. Each crossed later inside the one
    #: crossing that could decide its request, unless the request closed
    #: first.
    held_votes: int = 0


class _OpenRequest:
    """What the host knows about one request its enclave votes on."""

    __slots__ = ("request_id", "inside", "held")

    def __init__(self, request_id: int):
        self.request_id = request_id
        #: vote messages handed to the enclave, the local fold included.
        #: Counts messages, not outcomes, so it is never below the number
        #: of votes the voter record holds.
        self.inside = 0
        #: vote messages waiting at the host, arrival number -> message.
        self.held: dict[int, object] = {}


class TroxyHost:
    """Untrusted message pump around one TroxyCore.

    The host filters surplus messages itself: it remembers which
    requests its enclave opened a voter record for and which fast-read
    probes are outstanding, and spares everything else the crossing.
    A vote that arrives too early to complete a quorum waits here and
    crosses inside the one ecall that can decide its request.
    Both filters are advisory and untrusted. Dropping or delaying
    messages is a power the host has anyway, so a wrong filter costs
    liveness (the legacy client times out and fails over) and never a
    wrong reply: every vote that does cross is still authenticated and
    counted inside.
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
        probe: Optional[Probe] = None,
    ):
        self.env = env
        self.net = net
        self.node = node
        self.replica = replica
        self.replica_id = replica.replica_id
        self.core = core
        self.enclave = enclave
        self.query_timeout = query_timeout
        # Each pumped message is reported as one ``troxy.host`` interval.
        self.probe = probe if probe is not None else Probe(env)
        # The enclave's interface is exactly the roles it has (DESIGN.md
        # D13): their ecalls, and the one table that says which ecall a
        # message class enters by. A message for an absent role finds no
        # entry and goes the way of any unknown payload.
        self._ecall_of: dict[type, str] = {}
        for role in core.roles:
            for name in role.ecalls:
                enclave.register_ecall(name, getattr(role, name))
            self._ecall_of.update(role.handlers)
        # The arms that do host-side work around their crossing; every
        # other message class is pumped straight through the table.
        self._arms = {
            SecureEnvelope: self._handle_envelope,
            Reply: self._handle_vote,
            BatchedReply: self._handle_vote,
        }
        if core.prober is not None:
            self._arms[CacheEntryReply] = self._handle_probe_answer
        replica.reply_sink = self._local_reply_sink
        replica.batch_reply_sink = self._local_batch_reply_sink
        leasing = replica.leasing
        if leasing is not None:
            # The leader-side lease role is untrusted replica code: its
            # two inbound messages never cross.
            self._arms[LeaseRequest] = lambda msg, _src: leasing.handle_request(msg)
            self._arms[LeaseRevokeAck] = lambda msg, _src: leasing.handle_ack(msg)
            if core.holder is not None:
                # Executed slots hand their lease grants to the enclave,
                # and a leader revoking its own co-located Troxy's lease
                # calls straight into the ecall instead of sending to
                # itself.
                leasing.sink = self._lease_sink
                leasing.revoke_sink = self._lease_revoke_local
        self._stopped = False
        self.stats = TroxyHostStats()
        # client id -> the request the enclave holds a voter record for.
        # One entry per client session: a legacy client has one request
        # outstanding, which the replicas' duplicate suppression assumes
        # as well. An entry holds fewer than ``reply_quorum`` messages.
        self._open: dict[str, _OpenRequest] = {}
        self._reply_quorum = core.config.reply_quorum
        self._arrivals = itertools.count()
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
        starts empty, held votes included (a vote it then drops belonged
        to a request whose client has long failed over).
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
            Process(env, self._handle(msg.payload, msg.src), name=name)

    def _handle(self, payload, src: str):
        probe = self.probe
        token = None
        if probe.on:
            token = probe.begin(
                "troxy.host", self.node.name, payload, type=type(payload).__name__, src=src
            )
        try:
            kind = type(payload)
            arm = self._arms.get(kind)
            if arm is not None:
                yield from arm(payload, src)
                return
            ecall = self._ecall_of.get(kind)
            if ecall is None:
                self.replica.dispatch(payload)
            else:
                yield from self._cross(ecall, payload, bytes_in=payload.wire_size)
        finally:
            if token is not None:
                probe.end(token)

    def _cross(self, ecall: str, *args, bytes_in: int = 0):
        """One enclave crossing; act on the Action(s) it returns."""
        result = yield from self.enclave.ecall(ecall, *args, bytes_in=bytes_in)
        for action in result if type(result) is tuple else (result,):
            yield from self._act(action)

    def _handle_envelope(self, envelope: SecureEnvelope, src: str):
        if isinstance(envelope.body, Request):
            yield from self._cross(
                "handle_client_envelope", envelope, src, bytes_in=envelope.wire_size
            )
        else:
            self.replica.dispatch(envelope)

    def _handle_probe_answer(self, answer: CacheEntryReply, _src: str):
        if answer.nonce not in self._probes:
            self.stats.surplus_probe_replies += 1
            return
        action = yield from self.enclave.ecall(
            "handle_cache_entry_reply", answer, bytes_in=answer.wire_size
        )
        if action.kind not in ("wait", "drop"):
            # Hit, conflict or shard verdict: the probe is resolved.
            # A rejected answer leaves it outstanding — a forged
            # CacheEntryReply must not cancel the timeout.
            self._probes.pop(answer.nonce, None)
        yield from self._act(action)

    def _act(self, action: Optional[Action]):
        if action is None:
            return
            yield  # pragma: no cover - generator marker
        kind = action.kind
        if kind == "order" or kind == "forward":
            request = action.request if kind == "order" else action.message.request
            if request.origin == self.replica_id:
                # The enclave registered a voter record (also on a client
                # retransmission, which re-opens a decided request so the
                # replayed replies reach the voter again) and votes
                # converge here; a straggler merely passed along has its
                # record at its own fronting Troxy. The entry is fresh in
                # the same instant as the record, before anything below
                # yields, so ``inside`` never misses a vote that crossed.
                self._open[request.client_id] = _OpenRequest(request.request_id)
        if action.lease is not None:
            # Fire-and-forget lease (renewal) request piggybacked on the
            # main action: route it to the current group leader.
            leader = self.replica.leader_id
            if leader == self.replica_id:
                yield from self.replica.leasing.handle_request(action.lease)
            else:
                self.net.send(self.node.name, leader, action.lease)
        if kind in ("wait", "drop"):
            return
        if kind == "reply":
            # The client has its answer: whatever was open for it is
            # decided, later votes are surplus.
            client_id = action.message.body.client_id
            self._open.pop(client_id, None)
            self.net.send(
                self.node.name, action.dst, action.message, stream=client_id
            )
        elif kind == "order":
            yield from self.replica.submit(action.request)
        elif kind == "query":
            for replica_id, query in action.queries:
                self.net.send(self.node.name, replica_id, query)
            self._probes[action.nonce] = self.env.now + self.query_timeout
            self._arm_sweeper()
        elif kind == "send" or kind == "forward":
            self.net.send(self.node.name, action.dst, action.message)
        elif kind == "send_lease_ack":
            if action.dst == self.replica_id:
                # Revoking leader is this very replica: deliver locally.
                yield from self.replica.leasing.handle_ack(action.message)
            else:
                self.net.send(self.node.name, action.dst, action.message)
        else:
            raise ValueError(f"unknown action kind: {kind!r}")

    # -- early means wait (DESIGN.md D12) -----------------------------------------

    @staticmethod
    def _votes(message) -> tuple:
        return message.replies if type(message) is BatchedReply else (message,)

    def _open_for(self, items) -> list:
        """The open requests among ``items`` (votes or requests)."""
        entries = []
        for item in items:
            entry = self._open.get(item.client_id)
            if entry is not None and entry.request_id == item.request_id:
                entries.append(entry)
        return entries

    def _cross_with(self, entries) -> tuple:
        """One more vote for each of ``entries`` is about to enter the
        enclave. Returns everything held for them, in arrival order, to
        go inside in the same crossing. A released bundle crosses whole,
        so it counts as inside for every open request it carries."""
        held: dict[int, object] = {}
        for entry in entries:
            entry.inside += 1
            if entry.held:
                held.update(entry.held)
        if not held:
            return ()
        for number, message in held.items():
            for entry in self._open_for(self._votes(message)):
                if entry.held.pop(number, None) is not None:
                    entry.inside += 1
        return tuple(held[number] for number in sorted(held))

    def _handle_vote(self, message, _src: str):
        """A replica's ``Reply`` or ``BatchedReply`` arrived.

        It waits at the host while it cannot complete a quorum for any
        open request it carries, even if every vote the host has seen
        were valid and matching. The host counts messages, not outcomes:
        a forged, mismatching or duplicate vote makes the next one cross
        early, never late.
        """
        votes = self._votes(message)
        entries = self._open_for(votes)
        if not entries:
            self.stats.surplus_votes += len(votes)
            return
        quorum = self._reply_quorum
        for entry in entries:
            if entry.inside + len(entry.held) + 1 >= quorum:
                break
        else:
            number = next(self._arrivals)
            for entry in entries:
                entry.held[number] = message
            self.stats.held_votes += len(entries)
            return
        held = self._cross_with(entries)
        yield from self._cross(
            self._ecall_of[type(message)], message, held,
            bytes_in=message.wire_size + _wire_size(held),
        )

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
            self.env.process(
                self._cross("fast_read_timeout", nonce), name=self._qtimer_name
            )
        self._sweeping = False

    def _held_for_local(self, requests) -> tuple:
        """The co-located replica executed ``requests``. Its own votes
        for the ones that converge here are folded inside the
        authenticate crossing, which takes along whatever is held for
        them."""
        mine = [r for r in requests if r.origin == self.replica_id]
        return self._cross_with(self._open_for(mine)) if mine else ()

    def _local_reply_sink(self, request: Request, reply: Reply, fresh: bool = True):
        """Installed as the co-located replica's reply sink."""
        held = self._held_for_local((request,))
        yield from self._cross(
            "authenticate_local_reply", request, reply, fresh, held,
            bytes_in=reply.wire_size + _wire_size(held),
        )

    def _local_batch_reply_sink(self, pairs):
        """Installed as the co-located replica's batched reply sink: one
        enclave crossing invalidates and authenticates the whole batch."""
        held = self._held_for_local([request for request, _reply in pairs])
        yield from self._cross(
            "authenticate_batch_replies", pairs, True, held,
            bytes_in=sum(reply.wire_size for _request, reply in pairs)
            + _wire_size(held),
        )

    # -- lease plumbing (docs/READS.md) -----------------------------------------

    def _lease_sink(self, grants):
        """Installed as the replica's lease sink: an executed slot
        carried grants, hand the ones addressed to this Troxy to the
        enclave (one crossing for the whole slot)."""
        mine = tuple(g for g in grants if g.holder == self.replica_id)
        if mine:
            yield from self.enclave.ecall(
                "install_leases", mine, bytes_in=sum(grant.wire_size for grant in mine)
            )

    def _lease_revoke_local(self, revoke: LeaseRevoke):
        """Installed as the replica's local revoke sink: the leader is
        revoking its own co-located Troxy's lease — no network hop."""
        yield from self._cross("handle_lease_revoke", revoke, bytes_in=revoke.wire_size)
