"""The trusted Troxy core (the code that runs inside the enclave).

This is the relocated client-side BFT library plus the fast-read cache:

* terminates the clients' TLS sessions (session keys never leave the
  enclave);
* translates decrypted client requests into authenticated BFT requests
  (atomically, so the untrusted replica part cannot alter them);
* votes over Troxy-authenticated replies from f+1 replicas;
* runs the fast-read protocol of Fig. 4 with the conflict monitor's
  adaptive total-order switch.

Every public method here is the body of one *ecall*; the untrusted host
(:mod:`repro.troxy.host`) invokes them through the enclave boundary and
acts on the returned :class:`Action` values. The core never touches the
network itself — the prototype's "no ocalls" property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..apps.base import Operation
from ..crypto.costs import RuntimeProfile, profile as cost_profile
from ..crypto.keys import KeyRing
from ..crypto.primitives import DIGEST_SIZE
from ..crypto.tls import TlsEndpoint, TlsError
from ..hybster.config import ClusterConfig
from ..hybster.messages import Reply, Request
from ..hybster.secure import SecureEnvelope, open_body, seal_body
from ..sgx.enclave import Enclave
from ..sim.network import Node
from .cache import FastReadCache
from .lease import LeaseTable
from .messages import (
    BatchedReply,
    CacheEntryReply,
    CacheQuery,
    ForwardedRequest,
    LeaseGrant,
    LeaseRequest,
    LeaseRevoke,
    LeaseRevokeAck,
    ShardFastReply,
)
from .monitor import ConflictMonitor


@dataclass(frozen=True)
class Action:
    """What the untrusted host must do after an ecall returns.

    kind is one of:
      "reply"  — send ``envelope`` to ``dst`` (the client's machine);
      "order"  — submit ``request`` to the local replication logic;
      "query"  — send each (replica_id, CacheQuery) in ``queries`` and
                 arm a timeout for ``nonce``;
      "send_reply" — send the authenticated ``reply`` to replica ``dst``;
      "send_reply_batch" — send ``batch`` (a BatchedReply) to replica ``dst``;
      "forward" — send ``forward`` (a ForwardedRequest) to replica ``dst``
                  in the key's owning group (docs/SHARDING.md);
      "send_shard_reply" — send ``shard_reply`` (a ShardFastReply) to the
                  fronting replica ``dst``;
      "send_lease_ack" — send ``lease_ack`` (a LeaseRevokeAck) to the
                  revoking leader ``dst`` (docs/READS.md);
      "wait"   — nothing yet;
      "drop"   — discard (failed authentication etc.).

    ``lease`` optionally piggybacks a LeaseRequest on any action: the
    host forwards it to the current group leader in addition to acting
    on the main kind (fire-and-forget lease acquisition/renewal).
    """

    kind: str
    dst: str = ""
    envelope: Optional[SecureEnvelope] = None
    request: Optional[Request] = None
    reply: Optional[Reply] = None
    batch: Optional[BatchedReply] = None
    queries: tuple = ()
    nonce: int = 0
    reason: str = ""
    forward: Optional[ForwardedRequest] = None
    shard_reply: Optional[ShardFastReply] = None
    lease: Optional[LeaseRequest] = None
    lease_ack: Optional[LeaseRevokeAck] = None


@dataclass
class _Pending:
    """Voter state for one in-flight client request."""

    client_request: Request
    bft_request: Request
    client_machine: str
    votes: dict[str, Reply] = field(default_factory=dict)
    done: bool = False
    #: cache invalidation epoch of the read's keys when the request
    #: entered the voter; a higher epoch at quorum time means a write
    #: overtook this read and its result must not be installed.
    install_epoch: int = 0
    #: non-empty when the key lives in another shard group
    #: (docs/SHARDING.md), naming that group: votes still converge here,
    #: but the result is never installed into the local cache — a key's
    #: cache entries and invalidation epochs stay confined to its owning
    #: group — and the deciding quorum's view feeds the group's leader
    #: hint.
    group: str = ""


@dataclass
class _FastRead:
    """State of one outstanding fast-read quorum check."""

    client_request: Request
    bft_request: Request
    client_machine: str
    local_reply: Reply
    expected: set[str] = field(default_factory=set)
    failed: bool = False
    #: non-empty for a *forwarded* read resolved on behalf of another
    #: group's fronting Troxy: on quorum success the verdict travels
    #: back as a ShardFastReply instead of a sealed client reply, and on
    #: conflict/timeout the fallback is plain ordering (the voter state
    #: lives at the fronting Troxy, not here).
    origin: str = ""


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


class TroxyCore:
    """Trusted proxy logic for one replica."""

    def __init__(
        self,
        node: Node,
        enclave: Enclave,
        replica_id: str,
        config: ClusterConfig,
        keyring: KeyRing,
        rng,
        runtime: str = "cpp_sgx",
        fast_reads: bool = True,
        cache: Optional[FastReadCache] = None,
        monitor: Optional[ConflictMonitor] = None,
        keys_fn: Optional[Callable[[Operation], tuple]] = None,
        router=None,
        counters=None,
    ):
        self.node = node
        self.enclave = enclave
        self.replica_id = replica_id
        self.config = config
        self.keyring = keyring
        self.rng = rng
        self.profile: RuntimeProfile = cost_profile(runtime)
        self.fast_reads = fast_reads
        self.cache = cache if cache is not None else FastReadCache(enclave)
        self.monitor = monitor or ConflictMonitor()
        self.keys_fn = keys_fn or (lambda op: (op.key,))
        # Shared ShardRouter in sharded deployments (docs/SHARDING.md);
        # None means unsharded: every key is local and no routing
        # decision is ever consulted.
        self.router = router
        # Leader-aware forwarding (docs/SHARDING.md): per foreign group,
        # the highest view it was seen deciding a forwarded request in
        # (advisory, monotone) and when it last did — the hint is acted
        # on only while that evidence of a live leader is fresh.
        self._leader_hint: dict[str, tuple[int, float]] = {}
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
        self._mac_cost_digest = prof.mac.cost(DIGEST_SIZE)
        self._hash_cost_64 = prof.hash.cost(64)
        self.stats = TroxyStats()
        # Optional observability plane (repro.obs): cache/vote spans and
        # fast-read outcome events.
        self.obs = None
        self._sessions: dict[str, TlsEndpoint] = {}
        self._pending: dict[tuple[str, int], _Pending] = {}
        self._fast_reads: dict[int, _FastRead] = {}
        self._nonces = itertools.count(1)
        self._instance_key = keyring.troxy_instance(replica_id)
        # Read leases (docs/READS.md): the lease table lives inside the
        # enclave and fences installs with the sealed ``troxy-lease``
        # counter; ``counters`` is this enclave's trusted counter
        # subsystem. Leases engage only when both the config enables
        # them and a counter subsystem is wired — otherwise the path is
        # dormant and the wire format is byte-identical to pre-lease.
        self.counters = counters
        self.leases_enabled = bool(config.leases.enabled and counters is not None)
        self.lease_table = LeaseTable(counters) if self.leases_enabled else None
        #: per-key timestamp of the last LeaseRequest, for backoff.
        self._lease_requested: dict[str, float] = {}
        enclave.on_reboot(self._on_reboot)

    def _on_reboot(self) -> None:
        # Volatile state is lost; clients re-establish sessions and
        # retransmit. (The cache registers its own reboot hook.) The
        # lease table dies with the enclave while its sealed counter
        # survives — rollback can never resurrect a lease.
        self._sessions.clear()
        self._pending.clear()
        self._fast_reads.clear()
        self._leader_hint.clear()
        self._lease_requested.clear()
        if self.lease_table is not None:
            self.lease_table.clear()

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
        bft_request = Request(
            client_id=body.client_id,
            request_id=body.request_id,
            op=body.op,
            origin=self.replica_id,
            unordered=False,
        )
        # One hash + MAC authenticates the translated request — also when
        # it is forwarded: the forward tag covers the same auth_bytes().
        yield from self.node.charge(
            self._hash_base + self._hash_per_byte * bft_request.wire_size,
            self._mac_cost_digest,
        )
        if self.router is not None:
            decision = self.router.route(bft_request.op, self.replica_id)
            if decision.kind == "frozen":
                # The key's ring slice is mid-migration: reject the write
                # and let the legacy client's retransmission land it
                # after the cut-over (docs/SHARDING.md).
                self.stats.frozen_rejects += 1
                return Action("drop", reason="key frozen for shard migration")
            if decision.kind == "forward":
                return self._forward(body, bft_request, client_machine, decision)
        lease_request = None
        if self.leases_enabled and bft_request.op.is_read:
            served = yield from self._try_lease_read(body, bft_request, client_machine)
            if served is not None:
                return served
            lease_request = yield from self._maybe_lease_request(bft_request.op)
        if (
            self.fast_reads
            and bft_request.op.is_read
            and self.monitor.should_try_fast_read()
        ):
            action = yield from self._try_fast_read(body, bft_request, client_machine)
            if action is not None:
                return self._with_lease_request(action, lease_request)
        return self._with_lease_request(
            self._order(body, bft_request, client_machine), lease_request
        )

    def _forward(
        self,
        client_request: Request,
        bft_request: Request,
        client_machine: str,
        decision,
    ) -> Action:
        """Hand a foreign-key request to its owning group while staying
        the reply convergence point (docs/SHARDING.md). The voter state
        is registered exactly as for a local ordering — replies from the
        owning group's replicas converge on ``origin`` (this replica) —
        but flagged foreign so the result is never installed locally.
        The tag is the request authentication the caller already
        charged, so forwarding adds no simulated cost of its own."""
        self.stats.forwarded_out += 1
        key = (bft_request.client_id, bft_request.request_id)
        self._pending[key] = _Pending(
            client_request, bft_request, client_machine, group=decision.group
        )
        while len(self._pending) > self.MAX_PENDING:
            self._pending.pop(next(iter(self._pending)))
            self.stats.pending_evicted += 1
        tag = self._instance_key.sign(
            ForwardedRequest.auth_input(bft_request, self.replica_id)
        )
        target = self._forward_target(decision, bft_request.op)
        if self.obs is not None:
            self.obs.forward_begin(self, bft_request, target)
        return Action(
            "forward",
            dst=target,
            forward=ForwardedRequest(bft_request, self.replica_id, tag),
        )

    def _forward_target(self, decision, op: Operation) -> str:
        """Which replica of the owning group receives a forward.

        An operation the owning group will order goes straight to the
        group's hinted leader, whose "order" action then needs no
        in-group relay. A read keeps the same-index replica: its
        fast-read / lease path needs no leader and stays spread over the
        group. So does everything for a group that has decided nothing
        for this core within ``progress_timeout`` (or ever): a dead
        leader swallows forwards without anyone in its group arming a
        progress timer, whereas a live same-index follower relays and
        arms one exactly as a local request would. The next quorum the
        group decides renews the trust and brings the current view.
        """
        if op.is_read and (self.fast_reads or self.leases_enabled):
            return decision.target
        hint = self._leader_hint.get(decision.group)
        if hint is None:
            return decision.target
        view, decided_at = hint
        if self.node.env.now - decided_at > self.config.progress_timeout:
            return decision.target
        return self.router.leader_of(decision.group, view)

    def _group_decided(self, group: str, quorum: list) -> None:
        """The f+1 matching replies in ``quorum`` decided a request this
        core forwarded to ``group``. If they are fresh executions by
        ``group``'s own replicas the group has a live leader: renew the
        trust in the view hint and advance it. Replayed replies come out
        of duplicate-suppression caches and prove no ordering, and a
        straggler passed on after a ring cut-over is decided by the
        key's *new* owner, whose view says nothing about ``group`` (and,
        the hint being monotone, would stick): both change nothing.

        ``Reply.view`` is not under the reply MAC, hence advisory — a
        wrong hint lands the next forward on a follower that relays it,
        never on a different outcome. Taking the *lowest* view of the
        quorum still keeps one faulty replica from running the hint
        ahead of every correct one: at most f of f+1 voters are faulty.
        """
        members = self.router.members[group]
        view = quorum[0].view
        for vote in quorum:
            if not vote.fresh or vote.replica_id not in members:
                return
            if vote.view < view:
                view = vote.view
        known = self._leader_hint.get(group)
        if known is not None and known[0] > view:
            view = known[0]  # the hint only advances
        self._leader_hint[group] = (view, self.node.env.now)

    #: upper bound on in-flight voter records; abandoned entries (e.g.
    #: clients that failed over elsewhere) are evicted oldest-first.
    MAX_PENDING = 100_000

    def _order(self, client_request: Request, bft_request: Request, client_machine: str) -> Action:
        self.stats.ordered_requests += 1
        key = (bft_request.client_id, bft_request.request_id)
        pending = _Pending(client_request, bft_request, client_machine)
        if self.fast_reads and bft_request.op.is_read:
            pending.install_epoch = self.cache.key_epoch(
                self.keys_fn(bft_request.op)
            )
        self._pending[key] = pending
        while len(self._pending) > self.MAX_PENDING:
            self._pending.pop(next(iter(self._pending)))
            self.stats.pending_evicted += 1
        return Action("order", request=bft_request)

    def _cache_key(self, op: Operation) -> bytes:
        # Cache identity is the *operation*, shared across clients.
        return op.digest()

    # -- lease read path (docs/READS.md) ---------------------------------------------

    @staticmethod
    def _with_lease_request(action: Action, lease_request) -> Action:
        """Piggyback a fire-and-forget LeaseRequest on an action."""
        if lease_request is None:
            return action
        return replace(action, lease=lease_request)

    def _try_lease_read(
        self,
        client_request: Request,
        bft_request: Request,
        client_machine: str,
        origin: str = "",
    ):
        """Serve a read locally under a valid lease, with no probe round.

        Returns a final Action when the lease covers the read: either
        the served result (cache hit on an f+1-corroborated entry) or an
        ordering action (entry missing or uncorroborated — the ordered
        read warms the cache to voted status). Returns None when the
        keys are not all leased; the caller then takes the normal voted
        path and piggybacks a lease acquisition request.

        Safety: the grant activated at this enclave only when the
        carrying slot *executed*, after every earlier write to the key
        had already invalidated the cache; the leader parks any later
        write until this lease is revoked-and-acked or has expired on
        the shared clock. A surviving voted entry therefore reflects the
        last committed write for as long as the lease is valid.
        """
        keys = self.keys_fn(bft_request.op)
        now = self.node.env.now
        if not self.lease_table.covers(keys, now):
            return None
        yield from self.node.compute(
            self._hash_base + self._hash_per_byte * bft_request.op.size
        )
        cached = self.cache.get_voted(self._cache_key(bft_request.op))
        renewal = yield from self._maybe_lease_request(bft_request.op)
        if cached is None:
            # Leased but nothing trustworthy to serve: order the read.
            # Never serve a result only the local replica vouches for —
            # the lease removes the per-read quorum, so the entry itself
            # must already carry f+1 trust (vote install or promotion).
            self.stats.lease_read_uncorroborated += 1
            if self.obs is not None:
                self.obs.lease_result(self, client_request, "cold")
            if origin:
                self.stats.ordered_requests += 1
                return self._with_lease_request(
                    Action("order", request=bft_request), renewal
                )
            return self._with_lease_request(
                self._order(client_request, bft_request, client_machine), renewal
            )
        if self.cache.store_outside:
            yield from self.node.compute(
                self._hash_base + self._hash_per_byte * cached.result.size
            )
        else:
            yield from self.enclave.touch(cached.result.size)
        self.stats.lease_read_hits += 1
        if self.obs is not None:
            self.obs.lease_result(self, client_request, "hit")
        if origin:
            action = yield from self._attest_lease_shard_reply(
                bft_request, cached, origin
            )
            return self._with_lease_request(action, renewal)
        envelope = yield from self._seal_client_reply(
            client_request, cached.result, cached.request_digest
        )
        if envelope is None:
            return Action("drop", reason="no client session")
        return self._with_lease_request(
            Action("reply", dst=client_machine, envelope=envelope), renewal
        )

    def _maybe_lease_request(self, op: Operation):
        """Build one LeaseRequest if any of the op's keys needs a lease
        (missing, or within the renewal margin of expiry) and its
        per-key backoff allows it. Fire-and-forget: the host relays it
        to the current group leader."""
        now = self.node.env.now
        cfg = self.config.leases
        for key in self.keys_fn(op):
            lease = self.lease_table.get(key)
            if lease is not None and lease.expiry - now > cfg.renew_margin:
                continue  # comfortably covered
            last = self._lease_requested.get(key)
            if last is not None and now - last < cfg.request_backoff:
                continue
            self._lease_requested[key] = now
            yield from self.node.compute(self._mac_cost_digest)
            tag = self._instance_key.sign(
                LeaseRequest.auth_input(key, self.replica_id)
            )
            self.stats.lease_requests_sent += 1
            return LeaseRequest(key, self.replica_id, tag)
        return None

    def _attest_lease_shard_reply(self, bft_request: Request, cached, origin: str):
        """Lease-serve a *forwarded* read: this enclave vouches for the
        leased result to the fronting Troxy, exactly like a completed
        fast-read quorum (the lease carries the same f+1 trust)."""
        reply = Reply(
            replica_id=self.replica_id,
            client_id=bft_request.client_id,
            request_id=bft_request.request_id,
            result=cached.result,
            request_digest=cached.request_digest,
        )
        yield from self.node.compute(self._mac_base + self._mac_per_byte * reply.wire_size)
        tag = self._instance_key.sign(
            ShardFastReply.auth_input(reply, self.replica_id)
        )
        self.stats.shard_fast_replies_sent += 1
        return Action(
            "send_shard_reply",
            dst=origin,
            shard_reply=ShardFastReply(reply, self.replica_id, tag),
        )

    # -- ecall: lease maintenance (docs/READS.md) -------------------------------------

    def install_leases(self, grants):
        """Adopt the grants an executed slot carried for this Troxy
        (ecall #12). Called by the host's lease sink *after* the slot's
        execution — every earlier write has already invalidated the
        cache — and each install is fenced by the sealed lease counter,
        so a rebooted (rolled-back) enclave rejects replayed grants."""
        if self.lease_table is None:
            return None
        now = self.node.env.now
        for grant in grants:
            yield from self.node.compute(self._mac_cost_digest)
            granter_key = self.keyring.troxy_instance(grant.granter)
            if not granter_key.verify(
                LeaseGrant.auth_input(
                    grant.key, grant.holder, grant.granter, grant.epoch, grant.expiry
                ),
                grant.tag,
            ):
                self.stats.invalid_messages += 1
                continue
            outcome = self.lease_table.install(grant, now)
            if outcome == "installed":
                self.stats.lease_grants_installed += 1
                self._lease_requested.pop(grant.key, None)
            elif outcome == "fenced":
                self.stats.lease_grants_fenced += 1
            else:
                self.stats.lease_grants_rejected += 1
            if self.obs is not None:
                self.obs.lease_install(self, grant, outcome)
        return None

    def handle_lease_revoke(self, revoke: LeaseRevoke):
        """A leader wants to write under our lease (ecall #13): drop the
        lease, fence its epoch, bump the key's invalidation epoch, and
        acknowledge so the parked write can be ordered.

        The invalidation epoch bump is the shared-epoch fix: lease
        revocation and write invalidation use the *same* per-key epoch
        source, so a voted read that entered the vote before this revoke
        can no longer install its result afterwards — otherwise a
        lagging vote could resurrect the entry the revoke retired just
        as the parked write commits."""
        yield from self.node.compute(self._mac_cost_digest)
        sender_key = self.keyring.troxy_instance(revoke.sender)
        if not sender_key.verify(
            LeaseRevoke.auth_input(revoke.key, revoke.epoch, revoke.holder, revoke.sender),
            revoke.tag,
        ):
            self.stats.invalid_messages += 1
            return Action("drop", reason="bad lease revoke tag")
        if revoke.holder != self.replica_id:
            self.stats.invalid_messages += 1
            return Action("drop", reason="lease revoke for another holder")
        self.stats.lease_revocations += 1
        if self.lease_table is not None:
            self.lease_table.revoke(revoke.key, revoke.epoch)
        self.cache.invalidate_keys((revoke.key,))
        if self.obs is not None:
            self.obs.lease_revoked(self, revoke.key)
        yield from self.node.compute(self._mac_cost_digest)
        tag = self._instance_key.sign(
            LeaseRevokeAck.auth_input(revoke.key, revoke.epoch, self.replica_id)
        )
        return Action(
            "send_lease_ack",
            dst=revoke.sender,
            lease_ack=LeaseRevokeAck(revoke.key, revoke.epoch, self.replica_id, tag),
        )

    def _try_fast_read(
        self,
        client_request: Request,
        bft_request: Request,
        client_machine: str,
        origin: str = "",
    ):
        """Fig. 4, check_cache: local lookup then f remote probes.

        ``origin`` is set for forwarded reads resolved on behalf of
        another group's fronting Troxy (docs/SHARDING.md): the probes and
        quorum comparison are identical, only the outcome delivery
        differs (ShardFastReply / plain ordering instead of a sealed
        client reply / local voter registration)."""
        self.stats.fast_read_attempts += 1
        span = None
        if self.obs is not None:
            span = self.obs.cache_begin(self, client_request)
        outcome = "miss"
        try:
            yield from self.node.compute(self._hash_base + self._hash_per_byte * bft_request.op.size)
            cached = self.cache.get(self._cache_key(bft_request.op))
            if cached is None:
                self.monitor.record_miss()
                return None  # cache miss: order as any other request
            if self.cache.store_outside:
                # The reply body lives encrypted in untrusted memory; validate
                # it against the digest kept inside the enclave (Section V-A).
                yield from self.node.compute(self._hash_base + self._hash_per_byte * cached.result.size)
            else:
                # Stored in enclave memory: touching it may page against the
                # EPC limit.
                yield from self.enclave.touch(cached.result.size)
            nonce = next(self._nonces)
            replicas = [r for r in self.config.replica_ids if r != self.replica_id]
            chosen = self.rng.sample(replicas, self.config.f)
            queries = []
            request_digest = self._cache_key(bft_request.op)
            for replica_id in chosen:
                yield from self.node.compute(self._mac_cost_digest)
                tag = self._instance_key.sign(
                    CacheQuery.auth_input(request_digest, self.replica_id, nonce)
                )
                queries.append(
                    (replica_id, CacheQuery(request_digest, self.replica_id, nonce, tag))
                )
            self._fast_reads[nonce] = _FastRead(
                client_request, bft_request, client_machine, cached,
                expected=set(chosen), origin=origin,
            )
            outcome = "probe"
            return Action("query", queries=tuple(queries), nonce=nonce)
        finally:
            if span is not None:
                self.obs.cache_end(span, outcome)

    # -- ecall: remote cache protocol ---------------------------------------------------

    def answer_cache_query(self, query: CacheQuery):
        """Fig. 4, get_remote_cache_entry (ecall #3)."""
        yield from self.node.compute(self._mac_cost_digest)
        asker_key = self.keyring.troxy_instance(query.asker)
        if not asker_key.verify(
            CacheQuery.auth_input(query.request_digest, query.asker, query.nonce), query.tag
        ):
            self.stats.invalid_messages += 1
            return Action("drop", reason="bad cache query tag")
        self.stats.cache_queries_answered += 1
        cached = self.cache.peek(query.request_digest)
        reply_digest = None if cached is None else cached.result_digest()
        yield from self.node.compute(self._mac_cost_digest)
        tag = self._instance_key.sign(
            CacheEntryReply.auth_input(
                query.request_digest, reply_digest, self.replica_id, query.nonce
            )
        )
        answer = CacheEntryReply(
            query.request_digest, reply_digest, self.replica_id, query.nonce, tag
        )
        return Action("send_cache_reply", dst=query.asker, reply=None, queries=(answer,))

    def handle_cache_entry_reply(self, answer: CacheEntryReply):
        """Fig. 4, the quorum comparison at the voting Troxy (ecall #4)."""
        state = self._fast_reads.get(answer.nonce)
        if state is None:
            return Action("wait")  # late or replayed: nothing outstanding
        yield from self.node.compute(self._mac_cost_digest)
        responder_key = self.keyring.troxy_instance(answer.responder)
        if not responder_key.verify(
            CacheEntryReply.auth_input(
                answer.request_digest, answer.reply_digest, answer.responder, answer.nonce
            ),
            answer.tag,
        ):
            self.stats.invalid_messages += 1
            return Action("drop", reason="bad cache reply tag")
        if answer.responder not in state.expected:
            return Action("wait")
        state.expected.discard(answer.responder)
        local_digest = state.local_reply.result_digest()
        matches = (
            answer.request_digest == self._cache_key(state.bft_request.op)
            and answer.reply_digest == local_digest
        )
        if not matches:
            state.failed = True
            del self._fast_reads[answer.nonce]
            self.monitor.record_conflict()
            self.stats.fast_read_conflicts += 1
            if self.obs is not None:
                self.obs.fast_read_result(self, state.client_request, "conflict")
            # Entry may be outdated: drop it and order the read instead.
            self.cache.remove(self._cache_key(state.bft_request.op))
            return self._fast_read_fallback(state)
        if state.expected:
            return Action("wait")
        # All f remote caches match the local one: fast read succeeds.
        del self._fast_reads[answer.nonce]
        self.monitor.record_fast_success()
        self.stats.fast_read_hits += 1
        # f remote caches corroborated the local entry — that is an f+1
        # agreement, so the entry now carries enough trust for the lease
        # serve path (docs/READS.md).
        self.cache.promote(self._cache_key(state.bft_request.op))
        if self.obs is not None:
            self.obs.fast_read_result(self, state.client_request, "hit")
        if state.origin:
            return (yield from self._attest_shard_fast_reply(state))
        envelope = yield from self._seal_client_reply(
            state.client_request, state.local_reply.result, state.local_reply.request_digest
        )
        if envelope is None:
            return Action("drop", reason="no client session")
        return Action("reply", dst=state.client_machine, envelope=envelope)

    def fast_read_timeout(self, nonce: int):
        """Unresponsive remote Troxy: fall back to ordering (ecall #5)."""
        state = self._fast_reads.pop(nonce, None)
        if state is None or state.failed:
            return Action("wait")
        self.monitor.record_conflict()
        self.stats.fast_read_timeouts += 1
        if self.obs is not None:
            self.obs.fast_read_result(self, state.client_request, "timeout")
        return self._fast_read_fallback(state)

    def _fast_read_fallback(self, state: _FastRead) -> Action:
        """Order the read after a failed fast path. For a forwarded read
        the voter state lives at the fronting Troxy (the request's
        ``origin``), so there is nothing to register here — the replicas'
        replies converge there through the normal reply path."""
        if state.origin:
            self.stats.ordered_requests += 1
            return Action("order", request=state.bft_request)
        return self._order(state.client_request, state.bft_request, state.client_machine)

    def _attest_shard_fast_reply(self, state: _FastRead):
        """Package a completed fast-read quorum for the fronting Troxy
        (docs/SHARDING.md): this enclave vouches that f+1 caches of the
        owning group agreed on the result."""
        reply = Reply(
            replica_id=self.replica_id,
            client_id=state.bft_request.client_id,
            request_id=state.bft_request.request_id,
            result=state.local_reply.result,
            request_digest=state.local_reply.request_digest,
        )
        yield from self.node.compute(self._mac_base + self._mac_per_byte * reply.wire_size)
        tag = self._instance_key.sign(
            ShardFastReply.auth_input(reply, self.replica_id)
        )
        self.stats.shard_fast_replies_sent += 1
        return Action(
            "send_shard_reply",
            dst=state.origin,
            shard_reply=ShardFastReply(reply, self.replica_id, tag),
        )

    # -- ecall: cross-shard routing (docs/SHARDING.md) --------------------------------

    def handle_forwarded_request(self, fwd: ForwardedRequest):
        """A fronting Troxy handed us a request whose key this group
        owns (ecall #10). Verify the forwarder's Troxy authentication,
        then treat the request like a locally translated one — fast-read
        attempt for reads, ordering otherwise — except that the voter
        state stays at the fronting Troxy (the request's ``origin``)."""
        request = fwd.request
        if not isinstance(request, Request):
            self.stats.invalid_messages += 1
            return Action("drop", reason="not a forwarded request")
        yield from self.node.compute(self._mac_cost_digest)
        forwarder_key = self.keyring.troxy_instance(fwd.forwarder)
        if not forwarder_key.verify(
            ForwardedRequest.auth_input(request, fwd.forwarder), fwd.tag
        ):
            self.stats.invalid_messages += 1
            return Action("drop", reason="bad forward tag")
        self.stats.forwarded_in += 1
        if self.obs is not None:
            self.obs.forward_received(self, request)
        if self.router is not None:
            decision = self.router.route(request.op, self.replica_id)
            if decision.kind == "frozen":
                self.stats.frozen_rejects += 1
                return Action("drop", reason="key frozen for shard migration")
            if decision.kind == "forward":
                # Straggler that crossed a ring cut-over in flight: pass
                # it to the new owner. The original origin is preserved,
                # so the vote stream still converges at the fronting
                # Troxy wherever the request finally orders.
                self.stats.reforwards += 1
                yield from self.node.compute(self._mac_cost_digest)
                tag = self._instance_key.sign(
                    ForwardedRequest.auth_input(request, self.replica_id)
                )
                target = self._forward_target(decision, request.op)
                if self.obs is not None:
                    self.obs.forward_begin(self, request, target)
                return Action(
                    "forward",
                    dst=target,
                    forward=ForwardedRequest(request, self.replica_id, tag),
                )
        lease_request = None
        if self.leases_enabled and request.op.is_read:
            served = yield from self._try_lease_read(
                request, request, "", origin=request.origin
            )
            if served is not None:
                return served
            lease_request = yield from self._maybe_lease_request(request.op)
        if (
            self.fast_reads
            and request.op.is_read
            and self.monitor.should_try_fast_read()
        ):
            action = yield from self._try_fast_read(
                request, request, "", origin=request.origin
            )
            if action is not None:
                return self._with_lease_request(action, lease_request)
        self.stats.ordered_requests += 1
        return self._with_lease_request(Action("order", request=request), lease_request)

    def handle_shard_fast_reply(self, sfr: ShardFastReply):
        """The owning group's attested fast-read verdict for a request
        we forwarded (ecall #11). One Troxy enclave vouching for a
        completed f+1 cache agreement carries the same trust as a
        CacheEntryReply — mutually attested enclaves under the group
        secret — so the verdict is final: seal it for the client."""
        reply = sfr.reply
        if not isinstance(reply, Reply):
            self.stats.invalid_messages += 1
            return Action("drop", reason="not a shard fast reply")
        yield from self.node.compute(self._mac_base + self._mac_per_byte * reply.wire_size)
        responder_key = self.keyring.troxy_instance(sfr.responder)
        if not responder_key.verify(
            ShardFastReply.auth_input(reply, sfr.responder), sfr.tag
        ):
            self.stats.invalid_messages += 1
            return Action("drop", reason="bad shard fast reply tag")
        key = (reply.client_id, reply.request_id)
        pending = self._pending.get(key)
        if pending is None or pending.done or not pending.group:
            return Action("wait")  # late, replayed, or fallback already voted
        pending.done = True
        del self._pending[key]
        self.stats.shard_fast_replies_accepted += 1
        # Foreign key: never installed into the local cache — its cache
        # entries and invalidation epochs live in the owning group only.
        envelope = yield from self._seal_client_reply(
            pending.client_request, reply.result, reply.request_digest
        )
        if envelope is None:
            return Action("drop", reason="no client session")
        return Action("reply", dst=pending.client_machine, envelope=envelope)

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
        if not request.op.is_read:
            keys = self.keys_fn(request.op)
            yield from self.node.compute(self._hash_cost_64 * max(1, len(keys)))
            self.cache.invalidate_keys(keys)
        elif self.fast_reads and fresh:
            # Install the local replica's result for this ordered read. A
            # faulty local replica can only poison *this* cache; the fast-
            # read path requires f+1 matching entries from distinct
            # Troxies, so a poisoned entry can never reach a client.
            yield from self.node.compute(self._hash_base + self._hash_per_byte * request.op.size)
            self.cache.install(
                self._cache_key(request.op), reply, self.keys_fn(request.op)
            )
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
            yield from self.node.compute(
                self._mac_base + self._mac_per_byte * reply.wire_size
            )
            # Sign the fresh-stamped bytes: the untrusted host must not
            # be able to relabel a replayed reply as a fresh execution.
            tag = self._instance_key.sign(authenticated.auth_bytes())
            action = Action(
                "send_reply", dst=request.origin,
                reply=replace(authenticated, troxy_tag=tag),
            )
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
        requests (:meth:`_count_held`), then one "send_reply_batch"
        Action per remote origin.
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
            if not request.op.is_read:
                # The up-front sweep already charged and cleared these
                # keys; this pass only kills entries installed by reads
                # ordered earlier in this same batch (idempotent).
                self.cache.invalidate_keys(self.keys_fn(request.op))
            elif self.fast_reads and fresh:
                yield from self.node.compute(
                    self._hash_base + self._hash_per_byte * request.op.size
                )
                self.cache.install(
                    self._cache_key(request.op), reply, self.keys_fn(request.op)
                )
            if request.origin == self.replica_id:
                actions.append((yield from self._vote(reply)))
            else:
                outbound.setdefault(request.origin, []).append(reply)
        if held:
            actions += yield from self._count_held(held)
        for origin, replies in outbound.items():
            bundle_bytes = sum(reply.wire_size for reply in replies)
            yield from self.node.compute(self._mac_base + self._mac_per_byte * bundle_bytes)
            tag = self._instance_key.sign(BatchedReply.auth_input(self.replica_id, replies))
            actions.append(
                Action(
                    "send_reply_batch",
                    dst=origin,
                    batch=BatchedReply(self.replica_id, tuple(replies), tag),
                )
            )
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
        yield from self.node.compute(self._mac_base + self._mac_per_byte * batch.wire_size)
        sender_key = self.keyring.troxy_instance(batch.sender)
        if not sender_key.verify(
            BatchedReply.auth_input(batch.sender, batch.replies), batch.tag
        ):
            self.stats.invalid_messages += 1
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
            return tuple(actions)
        yield from self.node.compute(self._mac_base + self._mac_per_byte * reply.wire_size)
        sender_key = self.keyring.troxy_instance(reply.replica_id)
        if not sender_key.verify(reply.auth_bytes(), reply.troxy_tag):
            self.stats.invalid_messages += 1
            actions.append(Action("drop", reason="bad troxy tag"))
            return tuple(actions)
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
        """Count one authenticated vote (trusted-internal)."""
        span = None
        if self.obs is not None:
            span = self.obs.vote_begin(self, reply)
        outcome = "stale"
        try:
            key = (reply.client_id, reply.request_id)
            pending = self._pending.get(key)
            if pending is None or pending.done:
                return Action("wait")
            pending.votes[reply.replica_id] = reply
            matching = [
                vote for vote in pending.votes.values() if vote.matches(reply)
            ]
            if len(matching) < self.config.reply_quorum:
                outcome = "wait"
                return Action("wait")
            outcome = "decided"
            pending.done = True
            del self._pending[key]
            self.stats.replies_voted += 1
            if pending.group:
                self._group_decided(pending.group, matching)
            elif self.fast_reads and pending.bft_request.op.is_read:
                # Install the *voted* ordered-read result — unless a
                # write to any of its keys was invalidated while the
                # quorum was forming. A late vote completing after such a
                # write would otherwise resurrect the exact entry the
                # write purged, and f other lagging Troxies could then
                # corroborate the stale value into a fast read.
                #
                # A quorum of *replayed* replies (duplicate-suppression
                # answers to a client retransmission) is decided but
                # never installed: the replay carries the value from the
                # request's original execution position, so the entry may
                # predate writes that were invalidated long before this
                # Troxy ordered the retransmission — its epoch snapshot
                # cannot see that. Harmless to a voted fast read (remote
                # caches were purged, so no f+1 corroboration), but a
                # read lease would serve it locally (docs/READS.md).
                keys = self.keys_fn(pending.bft_request.op)
                if not all(vote.fresh for vote in matching):
                    self.stats.replay_installs_skipped += 1
                elif self.cache.key_epoch(keys) == pending.install_epoch:
                    self.cache.install(
                        self._cache_key(pending.bft_request.op), reply, keys,
                        voted=True,
                    )
                else:
                    self.stats.stale_installs_skipped += 1
            envelope = yield from self._seal_client_reply(
                pending.client_request, reply.result, reply.request_digest
            )
            if envelope is None:
                return Action("drop", reason="no client session")
            return Action("reply", dst=pending.client_machine, envelope=envelope)
        finally:
            if span is not None:
                self.obs.vote_end(span, outcome)

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
