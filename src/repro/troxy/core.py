"""The trusted Troxy core (the code that runs inside the enclave).

This is the relocated client-side BFT library:

* terminates the clients' TLS sessions (session keys never leave the
  enclave);
* translates decrypted client requests into authenticated BFT requests
  (atomically, so the untrusted replica part cannot alter them);
* votes over Troxy-authenticated replies from f+1 replicas of one
  agreement group;
* invalidates the fast-read cache before a write's reply is released.

What a deployment adds to that is a *role* (DESIGN.md D13): the
fast-read prober of Fig. 4 (:mod:`repro.troxy.prober`), the lease holder
(:mod:`repro.troxy.lease`), the shard front (:mod:`repro.shard.front`).
A role is a plain class that shares this core as its context; one that
is off is ``None``, and so are its ecalls.

Every method named in a role's ``ecalls`` is the body of one *ecall*;
the untrusted host (:mod:`repro.troxy.host`) invokes them through the
enclave boundary and acts on the returned :class:`Action` values. The
core never touches the network itself — the prototype's "no ocalls"
property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.costs import RuntimeProfile, profile as cost_profile
from ..crypto.keys import KeyRing
from ..crypto.primitives import DIGEST_SIZE
from ..crypto.tls import TlsEndpoint, TlsError
from ..hybster.config import ClusterConfig
from ..hybster.messages import Reply, Request
from ..hybster.secure import SecureEnvelope, open_body, seal_body
from ..sgx.enclave import Enclave
from ..sim.network import Node
from ..sim.probe import Probe
from .cache import FastReadCache
from .messages import BatchedReply, LeaseRequest
from .monitor import ConflictMonitor

#: :meth:`TroxyCore.group_of` for a replica of the core's own agreement
#: group, and :attr:`_Pending.group` of a request ordered in it.
OWN_GROUP = ""


@dataclass(slots=True, init=False, unsafe_hash=True)
class Action:
    """What the untrusted host must do after an ecall returns.

    kind is one of:
      "reply"  — send ``message`` (the sealed envelope) to ``dst``, the
                 client's machine;
      "order"  — submit ``request`` to the local replication logic;
      "query"  — send each (replica_id, CacheQuery) in ``queries`` and
                 arm a timeout for ``nonce``;
      "send"   — send ``message`` to replica ``dst``: an authenticated
                 Reply or BatchedReply for its origin, a CacheEntryReply
                 for its asker, a ShardFastReply for the fronting Troxy;
      "forward" — send ``message`` (a ForwardedRequest) to replica
                 ``dst`` in the key's owning group (docs/SHARDING.md);
                 votes for it converge here if it is this Troxy's own;
      "send_lease_ack" — hand ``message`` (a LeaseRevokeAck) to the
                 revoking leader ``dst``, which may be the co-located
                 replica (docs/READS.md);
      "wait"   — nothing yet;
      "drop"   — discard (failed authentication etc.).

    ``lease`` optionally piggybacks a LeaseRequest on any action: the
    host forwards it to the current group leader in addition to acting
    on the main kind (fire-and-forget lease acquisition/renewal).
    """

    kind: str
    dst: str = ""
    message: object = None
    request: Optional[Request] = None
    queries: tuple = ()
    nonce: int = 0
    reason: str = ""
    lease: Optional[LeaseRequest] = None

    def __init__(
        self, kind, dst="", message=None, request=None, queries=(), nonce=0, reason="",
        lease=None,
    ):
        self.kind = kind
        self.dst = dst
        self.message = message
        self.request = request
        self.queries = queries
        self.nonce = nonce
        self.reason = reason
        self.lease = lease


#: The action of an ecall that has nothing for the host to do yet.
WAIT = Action("wait")


def with_lease(action: Action, lease_request: Optional[LeaseRequest]) -> Action:
    """Piggyback a fire-and-forget LeaseRequest on an action."""
    if lease_request is None:
        return action
    return Action(
        action.kind, action.dst, action.message, action.request, action.queries,
        action.nonce, action.reason, lease_request,
    )


@dataclass(slots=True, init=False, unsafe_hash=True)
class Waiter:
    """Who gets the answer to an admitted request.

    Either a client session of this Troxy — ``client_machine`` is where
    the sealed reply goes, and ordering the request opens a voter record
    here — or, with ``front`` set, the fronting Troxy of another group
    that forwarded it (docs/SHARDING.md): a served result travels back
    attested, and ordering registers nothing, because the replicas'
    replies converge at the request's ``origin``, which is that Troxy.
    """

    #: the request as its client sent it (a forwarded one stands in for
    #: itself): names the session to seal for and the trace it is part of.
    client_request: Request
    client_machine: str = ""
    front: str = ""

    def __init__(self, client_request, client_machine="", front=""):
        self.client_request = client_request
        self.client_machine = client_machine
        self.front = front


@dataclass(slots=True, init=False)
class _Pending:
    """Voter state for one in-flight client request."""

    request: Request
    waiter: Waiter
    #: OWN_GROUP for a request ordered here: only this group's replicas
    #: vote on it, and its result may be installed. Otherwise the group
    #: the request was forwarded to (docs/SHARDING.md): votes still
    #: converge here, but the result is never installed into the local
    #: cache — a key's cache entries and invalidation epochs stay
    #: confined to its owning group — and the deciding quorum's view
    #: feeds the group's leader hint.
    group: str = OWN_GROUP
    votes: dict[str, Reply] = field(default_factory=dict)
    #: cache invalidation epoch of the read's keys when the request
    #: entered the voter; a higher epoch at quorum time means a write
    #: overtook this read and its result must not be installed.
    install_epoch: int = 0

    def __init__(self, request, waiter, group=OWN_GROUP, votes=None, install_epoch=0):
        self.request = request
        self.waiter = waiter
        self.group = group
        self.votes = {} if votes is None else votes
        self.install_epoch = install_epoch


@dataclass
class TroxyStats:
    client_requests: int = 0
    fast_read_attempts: int = 0
    fast_read_hits: int = 0
    fast_read_conflicts: int = 0
    fast_read_timeouts: int = 0
    ordered_requests: int = 0
    replies_voted: int = 0
    invalid_messages: int = 0
    cache_queries_answered: int = 0
    pending_evicted: int = 0
    # Batched agreement (docs/BATCHING.md): whole-batch authenticate
    # ecalls and the replies carried by them, plus inbound vote bundles
    # verified with one aggregate MAC.
    reply_batches: int = 0
    batched_replies: int = 0
    vote_batches: int = 0
    batched_votes: int = 0
    #: voted read results discarded instead of installed because a write
    #: invalidated their keys while the vote was in flight.
    stale_installs_skipped: int = 0
    replay_installs_skipped: int = 0
    # Sharded routing (docs/SHARDING.md): requests handed to / received
    # from other groups' Troxies, post-cut-over stragglers passed along,
    # writes rejected during a migration freeze, and fast-read verdicts
    # attested across groups.
    forwarded_out: int = 0
    forwarded_in: int = 0
    reforwards: int = 0
    frozen_rejects: int = 0
    shard_fast_replies_sent: int = 0
    shard_fast_replies_accepted: int = 0
    # Lease reads (docs/READS.md): local serves under a valid lease,
    # reads that held a lease but lacked an f+1-corroborated entry
    # (ordered instead), requests/renewals sent to the leader, grant
    # install outcomes at this holder, and revocations processed. A
    # "fenced" grant is one the sealed lease counter refused — the
    # rollback/replay case the counter exists to kill.
    lease_read_hits: int = 0
    lease_read_uncorroborated: int = 0
    lease_requests_sent: int = 0
    lease_grants_installed: int = 0
    lease_grants_rejected: int = 0
    lease_grants_fenced: int = 0
    lease_revocations: int = 0


def single_key(op) -> tuple:
    """The state an operation touches, for cache invalidation."""
    return (op.key,)


class TroxyCore:
    """Trusted proxy logic for one replica: sessions, client intake, the
    voter, reply authentication. The shared context of its roles."""

    ecalls = (
        "install_session",
        "handle_client_envelope",
        "authenticate_local_reply",
        "authenticate_batch_replies",
        "handle_replica_reply",
        "handle_replica_reply_batch",
    )
    #: message class -> the ecall it enters the enclave by.
    handlers = {
        SecureEnvelope: "handle_client_envelope",
        Reply: "handle_replica_reply",
        BatchedReply: "handle_replica_reply_batch",
    }

    #: upper bound on in-flight voter records; abandoned entries (e.g.
    #: clients that failed over elsewhere) are evicted oldest-first.
    MAX_PENDING = 100_000

    def __init__(
        self,
        node: Node,
        enclave: Enclave,
        replica_id: str,
        config: ClusterConfig,
        keyring: KeyRing,
        runtime: str = "cpp_sgx",
        cache: Optional[FastReadCache] = None,
        monitor: Optional[ConflictMonitor] = None,
        probe: Optional[Probe] = None,
    ):
        self.node = node
        self.enclave = enclave
        self.replica_id = replica_id
        self.config = config
        self.keyring = keyring
        self.profile: RuntimeProfile = cost_profile(runtime)
        self.cache = cache if cache is not None else FastReadCache(enclave)
        self.monitor = monitor or ConflictMonitor()
        # Where the core, its roles and its monitor report (repro.sim.probe).
        self.probe = probe if probe is not None else Probe(node.env)
        self.monitor.report_to(self.probe, replica_id)
        self.keys_fn = single_key
        # Roles. A feature that is off is a role that is absent; the
        # build attaches the ones it has (repro.deploy) before it hands
        # the core to its host.
        self.prober = None  # repro.troxy.prober.FastReadProber
        self.holder = None  # repro.troxy.lease.LeaseHolder
        self.front = None  # repro.shard.front.ShardFront
        # Hot-path cost scalars: every client request charges several of
        # these, and chasing profile -> OpCost -> cost() per charge is
        # measurable (see docs/PERFORMANCE.md). Inlined expressions keep
        # the exact float-operation order of OpCost.cost().
        prof = self.profile
        self._hash_base = prof.hash.base
        self._hash_per_byte = prof.hash.per_byte
        self._aead_base = prof.aead.base
        self._aead_per_byte = prof.aead.per_byte
        self._mac_base = prof.mac.base
        self._mac_per_byte = prof.mac.per_byte
        self.mac_cost_digest = prof.mac.cost(DIGEST_SIZE)
        self._hash_cost_64 = prof.hash.cost(64)
        self.stats = TroxyStats()
        self._sessions: dict[str, TlsEndpoint] = {}
        self._pending: dict[tuple[str, int], _Pending] = {}
        self._instance_key = keyring.troxy_instance(replica_id)
        enclave.on_reboot(self._on_reboot)

    @property
    def roles(self) -> tuple:
        """The core and the roles this deployment has: what the host
        registers ecalls and message handlers from."""
        present = (self, self.prober, self.holder, self.front)
        return tuple(role for role in present if role is not None)

    def _on_reboot(self) -> None:
        # Volatile state is lost; clients re-establish sessions and
        # retransmit. (The cache and each role register their own hook.)
        self._sessions.clear()
        self._pending.clear()

    def probe_request(self, nonce: int) -> Optional[Request]:
        """The client request fast-read probe ``nonce`` works for; None
        if no such probe is outstanding (or there is no prober). For
        observers: read-only."""
        return None if self.prober is None else self.prober.request_of(nonce)

    # -- authenticators: one way in, one way out ---------------------------------------

    def group_of(self, replica_id: str) -> Optional[str]:
        """The agreement group ``replica_id`` is a replica of: OWN_GROUP,
        another group of a sharded deployment, or None for a stranger."""
        if replica_id in self.config.replica_ids:
            return OWN_GROUP
        return None if self.front is None else self.front.router.group_of_replica(replica_id)

    def check_tag(self, sender: str, data: bytes, tag: bytes, cost: float):
        """The one tag check. Charges ``cost`` (the MAC), then accepts
        ``tag`` over ``data`` only if ``sender`` is a replica of a known
        group and the tag verifies under that replica's Troxy instance
        key; anything else is counted invalid.

        All groups of a sharded deployment share one key ring, so a tag
        that verifies proves only that *some* enclave of the deployment
        produced it. The membership compare (ahead of the MAC, compares
        only) is what lets the voter ask which group a vote came from.
        """
        yield from self.node.compute(cost)
        known = self.group_of(sender) is not None
        if known and self.keyring.troxy_instance(sender).verify(data, tag):
            return True
        self.stats.invalid_messages += 1
        return False

    def sign(self, data: bytes, cost: float):
        """The one way out: charge ``cost`` and tag ``data`` under this
        enclave's instance key."""
        yield from self.node.compute(cost)
        return self._instance_key.sign(data)

    def mac_cost(self, size: int) -> float:
        return self._mac_base + self._mac_per_byte * size

    def hash_cost(self, size: int) -> float:
        return self._hash_base + self._hash_per_byte * size

    # -- ecall: session management ------------------------------------------------

    def install_session(self, client_id: str, endpoint: TlsEndpoint) -> None:
        """Store a freshly negotiated session key (ecall #1)."""
        self._sessions[client_id] = endpoint

    # -- ecall: client request intake ------------------------------------------------

    def handle_client_envelope(self, envelope: SecureEnvelope, client_machine: str):
        """Decrypt, verify, and route one client request (ecall #2)."""
        self.stats.client_requests += 1
        body = envelope.body
        if not isinstance(body, Request):
            self.stats.invalid_messages += 1
            return Action("drop", reason="not a request")
        endpoint = self._sessions.get(body.client_id)
        if endpoint is None:
            self.stats.invalid_messages += 1
            return Action("drop", reason="no session")
        yield from self.node.compute(self._aead_base + self._aead_per_byte * envelope.wire_size)
        try:
            open_body(endpoint, envelope)
        except TlsError:
            self.stats.invalid_messages += 1
            return Action("drop", reason="bad record")
        # Atomically translate into an authenticated BFT request with this
        # replica as the reply convergence point.
        request = Request(
            client_id=body.client_id,
            request_id=body.request_id,
            op=body.op,
            origin=self.replica_id,
            unordered=False,
        )
        # One hash + MAC authenticates the translated request — also when
        # it is forwarded: the forward tag covers the same auth_bytes().
        yield from self.node.compute(
            self.hash_cost(request.wire_size) + self.mac_cost_digest
        )
        return (yield from self.admit(request, Waiter(body, client_machine)))

    def admit(self, request: Request, waiter: Waiter):
        """The one read-or-order decision, for a request whose
        authentication its ecall has checked (the TLS record of a client
        envelope, the forward tag of a ForwardedRequest): hand it to the
        group that owns its key, else serve it under a lease, else probe
        for a fast read, else order it."""
        if self.front is not None:
            routed = yield from self.front.route(request, waiter)
            if routed is not None:
                return routed
        lease_request = None
        if request.op.is_read:
            if self.holder is not None:
                served = yield from self.holder.try_read(request, waiter)
                if served is not None:
                    return served
                lease_request = yield from self.holder.maybe_request(request.op)
            if self.prober is not None and self.monitor.should_try_fast_read():
                action = yield from self.prober.try_read(request, waiter)
                if action is not None:
                    return with_lease(action, lease_request)
        return with_lease(self.order(request, waiter), lease_request)

    def order(self, request: Request, waiter: Waiter) -> Action:
        """Hand ``request`` to agreement. A client of this Troxy gets its
        voter record here; for a forwarded request the record is at the
        fronting Troxy, where the replicas' replies converge."""
        self.stats.ordered_requests += 1
        if not waiter.front:
            pending = self.open_record(request, waiter, OWN_GROUP)
            if self.prober is not None and request.op.is_read:
                pending.install_epoch = self.cache.key_epoch(self.keys_fn(request.op))
        return Action("order", request=request)

    def open_record(self, request: Request, waiter: Waiter, group: str) -> _Pending:
        """Register the voter record of a request ``group`` will execute."""
        pending = _Pending(request, waiter, group)
        self._pending[request.client_id, request.request_id] = pending
        while len(self._pending) > self.MAX_PENDING:
            self._pending.pop(next(iter(self._pending)))
            self.stats.pending_evicted += 1
        return pending

    def deliver(self, request: Request, waiter: Waiter, result, request_digest: bytes):
        """``request`` has its answer: seal it for the waiting client,
        or attest it to the fronting Troxy that forwarded the request."""
        if waiter.front:
            return (yield from self.front.attest(request, result, request_digest))
        envelope = yield from self._seal_client_reply(
            waiter.client_request, result, request_digest
        )
        if envelope is None:
            return Action("drop", reason="no client session")
        return Action("reply", dst=waiter.client_machine, message=envelope)

    def load_cached(self, cached: Reply):
        """Bring a cached reply's body in for serving. Stored outside, it
        lives encrypted in untrusted memory and is validated against the
        digest kept inside the enclave (Section V-A); stored inside,
        touching it may page against the EPC limit."""
        if self.cache.store_outside:
            yield from self.node.compute(self.hash_cost(cached.result.size))
        else:
            yield from self.enclave.touch(cached.result.size)

    # -- ecall: reply path ----------------------------------------------------------------

    def authenticate_local_reply(
        self, request: Request, reply: Reply, fresh: bool = True, held=()
    ):
        """Invalidate-and-authenticate for the local replica's reply
        (ecall #6). The invalidation happening *before* the
        authentication is what entangles cache maintenance with the
        protocol (Section IV-B).

        ``fresh`` is False when the replica re-emits a reply out of its
        duplicate-suppression cache (client retransmission after a
        failover). Replays carry the result from the request's original
        execution position, so installing them would resurrect cache
        entries that later writes already invalidated — a replayed read
        therefore never (re-)installs. Invalidation stays unconditional:
        it is idempotent and only ever conservative.

        ``held`` are the remote votes the host kept back for this
        request (:meth:`_count_held`). Returns a tuple of Actions."""
        if reply.replica_id != self.replica_id:
            # This enclave authenticates its own replica's replies and no
            # one else's: under another name the local fold below would
            # let one faulty host cast every vote of a quorum.
            self.stats.invalid_messages += 1
            return (Action("drop", reason="local reply under a foreign replica id"),)
        if not request.op.is_read:
            keys = self.keys_fn(request.op)
            yield from self.node.compute(self._hash_cost_64 * max(1, len(keys)))
            self.cache.invalidate_keys(keys)
        elif self.prober is not None and fresh:
            yield from self.prober.install_local(request, reply)
        authenticated = Reply(
            replica_id=reply.replica_id,
            client_id=reply.client_id,
            request_id=reply.request_id,
            result=reply.result,
            request_digest=reply.request_digest,
            view=reply.view,
            fresh=fresh,
        )
        if request.origin == self.replica_id:
            # Local reply feeding the local voter: fold the vote into this
            # ecall instead of crossing the boundary a second time
            # (transition minimization, Section V-A). It never leaves the
            # enclave, so it needs no tag.
            action = yield from self._vote(authenticated)
        else:
            # Sign the fresh-stamped bytes: the untrusted host must not
            # be able to relabel a replayed reply as a fresh execution.
            tag = yield from self.sign(
                authenticated.auth_bytes(), self.mac_cost(reply.wire_size)
            )
            signed = Reply(
                reply.replica_id, reply.client_id, reply.request_id, reply.result,
                reply.request_digest, reply.view, tag, fresh,
            )
            action = Action("send", dst=request.origin, message=signed)
        if not held:
            return (action,)
        return (action, *(yield from self._count_held(held)))

    def authenticate_batch_replies(self, pairs, fresh: bool = True, held=()):
        """Invalidate-and-authenticate for one executed *batch* of the
        local replica (ecall #8), one enclave crossing for the whole
        batch instead of one per reply.

        Freshness across the batch (Section IV-B extended to batched
        agreement, docs/BATCHING.md): every key written anywhere in the
        batch is invalidated in one up-front sweep, before *any* reply
        of the batch is authenticated — so no reply can become visible
        while a cache entry it outdates is still servable. Within the
        batch, installs and invalidations then replay in execution
        order, so a read ordered before a write to the same key in the
        same batch cannot resurrect a stale entry.

        Authentication is amortized along with the crossing: replies
        bound for the *local* voter are counted inside this same ecall
        (no per-reply tag needed — they never leave the enclave), and
        replies bound for each remote origin are bundled into one
        :class:`BatchedReply` authenticated with a single MAC over the
        bundle, instead of one MAC and one message per reply.

        Returns the local voter's Actions (in batch order), those of
        the ``held`` remote votes the host kept back for the batch's
        requests (:meth:`_count_held`), then one "send" Action per
        remote origin.
        """
        self.stats.reply_batches += 1
        self.stats.batched_replies += len(pairs)
        union: set = set()
        for request, _reply in pairs:
            if not request.op.is_read:
                union.update(self.keys_fn(request.op))
        if union:
            yield from self.node.compute(self._hash_cost_64 * len(union))
            self.cache.invalidate_batch(union)
        actions = []
        outbound: dict[str, list[Reply]] = {}
        for request, reply in pairs:
            if reply.replica_id != self.replica_id:
                # As in authenticate_local_reply: own replica's only.
                self.stats.invalid_messages += 1
                actions.append(Action("drop", reason="local reply under a foreign replica id"))
                continue
            if not request.op.is_read:
                # The up-front sweep already charged and cleared these
                # keys; this pass only kills entries installed by reads
                # ordered earlier in this same batch (idempotent).
                self.cache.invalidate_keys(self.keys_fn(request.op))
            elif self.prober is not None and fresh:
                yield from self.prober.install_local(request, reply)
            if request.origin == self.replica_id:
                actions.append((yield from self._vote(reply)))
            else:
                outbound.setdefault(request.origin, []).append(reply)
        if held:
            actions += yield from self._count_held(held)
        for origin, replies in outbound.items():
            bundle_bytes = sum(reply.wire_size for reply in replies)
            tag = yield from self.sign(
                BatchedReply.auth_input(self.replica_id, replies), self.mac_cost(bundle_bytes)
            )
            bundle = BatchedReply(self.replica_id, tuple(replies), tag)
            actions.append(Action("send", dst=origin, message=bundle))
        return tuple(actions)

    def handle_replica_reply_batch(self, batch: BatchedReply, held=()):
        """The server-side voter for one reply bundle (ecall #9): verify
        the single bundle MAC, then count every carried vote — one
        enclave crossing and one MAC check for the whole bundle. The
        ``held`` votes the host kept back are counted first
        (:meth:`_count_held`). Returns a tuple of Actions."""
        actions = (yield from self._count_held(held)) if held else []
        self.stats.vote_batches += 1
        self.stats.batched_votes += len(batch.replies)
        if not (yield from self.check_tag(
            batch.sender, BatchedReply.auth_input(batch.sender, batch.replies),
            batch.tag, self.mac_cost(batch.wire_size),
        )):
            actions.append(Action("drop", reason="bad batched reply tag"))
            return tuple(actions)
        for reply in batch.replies:
            if reply.replica_id != batch.sender:
                # The bundle tag only vouches for the sender's own
                # replies; a relayed vote under another replica id would
                # let one faulty Troxy stuff the ballot.
                self.stats.invalid_messages += 1
                actions.append(Action("drop", reason="vote for foreign replica id"))
                continue
            actions.append((yield from self._vote(reply)))
        return tuple(actions)

    def handle_replica_reply(self, reply: Reply, held=()):
        """The server-side voter (ecall #7): verify the Troxy
        authentication and count the vote; on f+1 matching replies seal
        the result for the client. The ``held`` votes the host kept back
        are counted first (:meth:`_count_held`). Returns a tuple of
        Actions, the arriving vote's last."""
        actions = (yield from self._count_held(held)) if held else []
        if reply.troxy_tag is None:
            self.stats.invalid_messages += 1
            actions.append(Action("drop", reason="missing troxy tag"))
        elif not (yield from self.check_tag(
            reply.replica_id, reply.auth_bytes(), reply.troxy_tag,
            self.mac_cost(reply.wire_size),
        )):
            actions.append(Action("drop", reason="bad troxy tag"))
        else:
            actions.append((yield from self._vote(reply)))
        return tuple(actions)

    def _count_held(self, held) -> list:
        """Verify and count the vote messages the untrusted host kept
        back, in the order given; returns one Action per ``Reply`` and
        per ``BatchedReply`` member.

        Early means wait (DESIGN.md D12): the host holds a vote while it
        cannot complete a quorum and hands it in with the crossing that
        can. Each held message goes through the very ecall body it would
        have reached alone, so it is checked and charged exactly as
        before; what the host chose to hold changes when a vote is
        counted and nothing else.
        """
        actions = []
        for message in held:
            if type(message) is Reply:
                actions += yield from self.handle_replica_reply(message)
            elif type(message) is BatchedReply:
                actions += yield from self.handle_replica_reply_batch(message)
            else:
                self.stats.invalid_messages += 1
                actions.append(Action("drop", reason="not a vote message"))
        return actions

    def _vote(self, reply: Reply):
        """Count one vote (trusted-internal). The caller vouches for the
        voter's name: :meth:`check_tag` for a vote that arrived, this
        enclave's own for the local fold.

        A quorum is f+1 matching votes *from one agreement group*: each
        group tolerates f faulty replicas of its own, so f+1 votes
        gathered across groups may all be faulty. A request ordered here
        is decided by this core's own group and no other; a forwarded
        one by whichever single group answers it — the owner it was sent
        to or, after a ring cut-over, the key's new owner.
        """
        probe = self.probe
        token = None
        if probe.on:
            token = probe.begin("troxy.vote", self.node.name, reply, voter=reply.replica_id)
        outcome = "stale"
        try:
            key = (reply.client_id, reply.request_id)
            pending = self._pending.get(key)
            if pending is None:
                return WAIT
            outcome = "wait"
            group = self.group_of(reply.replica_id)
            if pending.group == OWN_GROUP and group != OWN_GROUP:
                return WAIT
            pending.votes[reply.replica_id] = reply
            matching = [
                vote for vote in pending.votes.values()
                if vote.matches(reply) and self.group_of(vote.replica_id) == group
            ]
            if len(matching) < self.config.reply_quorum:
                return WAIT
            outcome = "decided"
            del self._pending[key]
            self.stats.replies_voted += 1
            if pending.group != OWN_GROUP:
                self.front.group_decided(pending.group, matching)
            elif self.prober is not None and pending.request.op.is_read:
                self.prober.install_voted(pending, reply, matching)
            return (yield from self.deliver(
                pending.request, pending.waiter, reply.result, reply.request_digest
            ))
        finally:
            if token is not None:
                probe.end(token, outcome=outcome)

    # -- helpers -------------------------------------------------------------------------------

    def _seal_client_reply(self, client_request: Request, result, request_digest: bytes):
        endpoint = self._sessions.get(client_request.client_id)
        if endpoint is None:
            return None
        client_reply = Reply(
            replica_id=self.replica_id,
            client_id=client_request.client_id,
            request_id=client_request.request_id,
            result=result,
            request_digest=request_digest,
        )
        yield from self.node.compute(self._aead_base + self._aead_per_byte * client_reply.wire_size)
        return seal_body(endpoint, client_reply)
