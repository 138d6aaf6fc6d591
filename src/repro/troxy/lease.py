"""Lease-based linearizable fast reads (docs/READS.md).

Three cooperating state machines implement leader-granted read leases;
one enclave role drives the holder side and one replica role the leader
side:

* :class:`LeaseTable` — the *holder* side, living inside the Troxy
  enclave. Installs grants behind the sealed ``troxy-lease`` counter
  (:func:`repro.sgx.counters.certify_lease`), serves validity checks to
  the read path, and fences revocations by burning the grant epoch so a
  rolled-back enclave or a replayed grant can never resurrect a lease.
* :class:`LeaseHolder` — the role that wires a table into one Troxy
  core (``core.holder``, DESIGN.md D13): the lease read path, lease
  requests, and the two lease ecalls. A Troxy built without leases has
  no holder, no table and neither ecall.
* :class:`LeaseManager` — the *leader* side, living next to the Hybster
  replica. Queues lease requests, folds grants into ORDER messages
  (``Order.grants``, covered by the order certificate), parks writes to
  leased keys until the covering lease is revoked-and-acknowledged or
  has expired on the shared clock, and signs revocations.
* :class:`LeaseDirectory` — a conservative per-replica mirror of every
  grant observed in the ordered stream. A new leader adopts its mirror
  as the authoritative lease set: it may over-approximate (entries it
  never saw revoked), which costs at most one lease duration of write
  parking, but never under-approximates — the grants rode certified
  orders, so a leader cannot have missed one below its commit point.
* :class:`LeaseGranter` — the role that wires a manager and a directory
  into one Hybster replica (``replica.leasing``, DESIGN.md D11): request
  and ack handling, write parking, revocation timers, the grant flush.
  It lives here, not in :mod:`repro.hybster`, so that package imports
  nothing from Troxy; a replica built without leases has no granter.

Epochs are ``seq * LEASE_EPOCH_STRIDE + index``: strictly increasing in
the order a holder executes them (execution is in slot order), strictly
increasing across view changes (a new leader's next slot exceeds every
executed slot), which is what lets one sealed monotonic counter fence
every install.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hybster.messages import NOOP_REQUEST_CLIENT, Request, noop_request
from ..sgx.counters import (
    CounterError,
    TrustedCounterSubsystem,
    burn_lease_epoch,
    certify_lease,
)
from .core import Action, TroxyCore, Waiter, single_key, with_lease
from .messages import LeaseGrant, LeaseRequest, LeaseRevoke, LeaseRevokeAck

#: Epoch slots reserved per agreement sequence number; bounds how many
#: grants one ORDER may carry while keeping epochs monotone in (seq, i).
LEASE_EPOCH_STRIDE = 1024


class LeaseTable:
    """Holder-side lease state, fenced by the sealed lease counter."""

    def __init__(self, counters: TrustedCounterSubsystem):
        self._counters = counters
        self._leases: dict[str, LeaseGrant] = {}

    def __len__(self) -> int:
        return len(self._leases)

    def get(self, key: str) -> Optional[LeaseGrant]:
        return self._leases.get(key)

    def valid(self, key: str, now: float) -> bool:
        lease = self._leases.get(key)
        return lease is not None and now < lease.expiry

    def covers(self, keys, now: float) -> bool:
        """Whether every key in ``keys`` is under a valid lease."""
        return all(self.valid(key, now) for key in keys)

    def install(self, grant: LeaseGrant, now: float) -> str:
        """Try to adopt a grant; returns the outcome for stats/probes.

        ``"installed"`` — lease active; ``"expired"`` — dead on arrival
        (execution lagged past the expiry); ``"stale"`` — an equal or
        newer lease for the key is already held; ``"fenced"`` — the
        sealed counter refused the epoch (rollback or replay: the
        enclave rebooted after installing a later epoch, or the epoch
        was burned by a revocation that outran the grant).
        """
        if now >= grant.expiry:
            return "expired"
        held = self._leases.get(grant.key)
        if held is not None and held.epoch >= grant.epoch:
            return "stale"
        try:
            certify_lease(self._counters, grant.epoch, grant.digest())
        except CounterError:
            return "fenced"
        self._leases[grant.key] = grant
        return "installed"

    def revoke(self, key: str, epoch: int) -> bool:
        """Drop the lease on ``key`` (if ours is not newer than ``epoch``)
        and burn the epoch so the revoked grant can never install later.
        Returns whether a live lease was actually dropped."""
        lease = self._leases.get(key)
        dropped = False
        if lease is not None and lease.epoch <= epoch:
            del self._leases[key]
            dropped = True
        burn_lease_epoch(self._counters, epoch)
        return dropped

    def clear(self) -> None:
        """Enclave reboot: the volatile table dies, the sealed counter
        survives — which is exactly why rollback cannot resurrect any
        lease this table ever held."""
        self._leases.clear()


class LeaseHolder:
    """The lease-holding role of one Troxy enclave; absent unless the
    build enables leases.

    Mutable state: the lease table (fenced by this enclave's sealed
    ``troxy-lease`` counter) and the per-key time of the last
    LeaseRequest. The core reaches it in ``admit`` (``try_read``,
    ``maybe_request``); the host hands it executed grants and relays
    revocations.
    """

    ecalls = ("install_leases", "handle_lease_revoke")
    handlers = {LeaseRevoke: "handle_lease_revoke"}

    def __init__(self, core: TroxyCore, counters: TrustedCounterSubsystem):
        self.core = core
        self.table = LeaseTable(counters)
        #: per-key timestamp of the last LeaseRequest, for backoff.
        self._requested: dict[str, float] = {}
        core.enclave.on_reboot(self._on_reboot)

    def _on_reboot(self) -> None:
        # The table dies with the enclave while its sealed counter
        # survives: rollback can never resurrect a lease.
        self._requested.clear()
        self.table.clear()

    # -- seams called by the core's admit path -------------------------------------

    def try_read(self, request: Request, waiter: Waiter):
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
        core = self.core
        op = request.op
        if not self.table.covers(core.keys_fn(op), core.node.env.now):
            return None
        yield from core.node.compute(core.hash_cost(op.size))
        cached = core.cache.get_voted(op.digest())
        renewal = yield from self.maybe_request(op)
        if cached is None:
            # Leased but nothing trustworthy to serve: order the read.
            # Never serve a result only the local replica vouches for —
            # the lease removes the per-read quorum, so the entry itself
            # must already carry f+1 trust (vote install or promotion).
            core.stats.lease_read_uncorroborated += 1
            if core.probe.on:
                core.probe.event(
                    "troxy.lease_read", core.node.name, waiter.client_request, outcome="cold"
                )
            return with_lease(core.order(request, waiter), renewal)
        yield from core.load_cached(cached)
        core.stats.lease_read_hits += 1
        if core.probe.on:
            core.probe.event(
                "troxy.lease_read", core.node.name, waiter.client_request, outcome="hit"
            )
        # The lease carries the f+1 trust of a completed fast-read
        # quorum, towards a client and a fronting Troxy alike.
        action = yield from core.deliver(
            request, waiter, cached.result, cached.request_digest
        )
        return with_lease(action, renewal)

    def maybe_request(self, op):
        """Build one LeaseRequest if any of the op's keys needs a lease
        (missing, or within the renewal margin of expiry) and its
        per-key backoff allows it. Fire-and-forget: the host relays it
        to the current group leader."""
        core = self.core
        now = core.node.env.now
        cfg = core.config.leases
        for key in core.keys_fn(op):
            lease = self.table.get(key)
            if lease is not None and lease.expiry - now > cfg.renew_margin:
                continue  # comfortably covered
            last = self._requested.get(key)
            if last is not None and now - last < cfg.request_backoff:
                continue
            self._requested[key] = now
            tag = yield from core.sign(
                LeaseRequest.auth_input(key, core.replica_id), core.mac_cost_digest
            )
            core.stats.lease_requests_sent += 1
            return LeaseRequest(key, core.replica_id, tag)
        return None

    # -- ecalls: lease maintenance ---------------------------------------------------

    def install_leases(self, grants):
        """Adopt the grants an executed slot carried for this Troxy
        (ecall #12). Called by the host's lease sink *after* the slot's
        execution — every earlier write has already invalidated the
        cache — and each install is fenced by the sealed lease counter,
        so a rebooted (rolled-back) enclave rejects replayed grants."""
        core = self.core
        now = core.node.env.now
        for grant in grants:
            if not (yield from core.check_tag(
                grant.granter,
                LeaseGrant.auth_input(
                    grant.key, grant.holder, grant.granter, grant.epoch, grant.expiry
                ),
                grant.tag, core.mac_cost_digest,
            )):
                continue
            outcome = self.table.install(grant, now)
            if outcome == "installed":
                core.stats.lease_grants_installed += 1
                self._requested.pop(grant.key, None)
            elif outcome == "fenced":
                core.stats.lease_grants_fenced += 1
            else:
                core.stats.lease_grants_rejected += 1
            if core.probe.on:
                core.probe.event(
                    "troxy.lease_install", core.node.name, key=grant.key, outcome=outcome
                )

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
        core = self.core
        if not (yield from core.check_tag(
            revoke.sender,
            LeaseRevoke.auth_input(revoke.key, revoke.epoch, revoke.holder, revoke.sender),
            revoke.tag, core.mac_cost_digest,
        )):
            return Action("drop", reason="bad lease revoke tag")
        if revoke.holder != core.replica_id:
            core.stats.invalid_messages += 1
            return Action("drop", reason="lease revoke for another holder")
        core.stats.lease_revocations += 1
        self.table.revoke(revoke.key, revoke.epoch)
        core.cache.invalidate_keys((revoke.key,))
        if core.probe.on:
            core.probe.event("troxy.lease_revoke", core.node.name, key=revoke.key)
        tag = yield from core.sign(
            LeaseRevokeAck.auth_input(revoke.key, revoke.epoch, core.replica_id),
            core.mac_cost_digest,
        )
        ack = LeaseRevokeAck(revoke.key, revoke.epoch, core.replica_id, tag)
        return Action("send_lease_ack", dst=revoke.sender, message=ack)


class LeaseDirectory:
    """Conservative per-replica mirror of grants seen in ordered slots."""

    def __init__(self):
        self._grants: dict[str, LeaseGrant] = {}

    def observe(self, grant: LeaseGrant) -> None:
        held = self._grants.get(grant.key)
        if held is None or grant.epoch > held.epoch:
            self._grants[grant.key] = grant

    def active(self, now: float) -> tuple[LeaseGrant, ...]:
        """Prune expired entries and return the live grants."""
        dead = [k for k, g in self._grants.items() if now >= g.expiry]
        for key in dead:
            del self._grants[key]
        return tuple(self._grants.values())


class LeaseManager:
    """Leader-side granting, revocation, and write parking."""

    def __init__(
        self,
        replica_id: str,
        instance_key,
        config,
        grantable: Optional[Callable[[str], bool]] = None,
    ):
        self.replica_id = replica_id
        self._key = instance_key
        self.config = config
        # Deployment veto (sharding): keys pinned to another group or
        # under a migration write-freeze must not be leased.
        self._grantable = grantable or (lambda key: True)
        self._active: dict[str, LeaseGrant] = {}
        self._revoking: dict[str, LeaseGrant] = {}
        self._pending: dict[str, str] = {}  # key -> requesting holder
        # Parked writes: (request, keys-still-blocking-it). A request
        # releases only once every blocking key is revoked or expired.
        self._parked: list[list] = []

    # -- requests and grants ------------------------------------------------

    def note_request(self, key: str, holder: str, now: float) -> bool:
        """Queue a (renewal) request; returns whether it was queued."""
        if key in self._revoking:
            return False  # a write is waiting; the holder re-requests later
        held = self._active.get(key)
        if held is not None and now < held.expiry and held.holder != holder:
            return False  # single writer per key: someone else holds it
        self._pending[key] = holder
        return True

    def has_pending(self) -> bool:
        return bool(self._pending)

    def grants_for_slot(self, seq: int, now: float) -> tuple[LeaseGrant, ...]:
        """Drain grantable requests into the grants for slot ``seq``.

        Called by the leader under the order lock, immediately before
        the slot's content digest is certified — the grants become part
        of the certified order, and are registered active here at attach
        time so any later write to these keys parks even though the
        carrying order has not executed yet.
        """
        if not self._pending:
            return ()
        self._drop_expired(now)
        grants = []
        for key, holder in list(self._pending.items()):
            if key in self._revoking:
                del self._pending[key]
                continue
            held = self._active.get(key)
            if held is not None and held.holder != holder:
                del self._pending[key]
                continue
            if not self._grantable(key):
                del self._pending[key]
                continue
            if len(grants) >= LEASE_EPOCH_STRIDE:
                break  # epoch space for this slot is full; rest wait
            epoch = seq * LEASE_EPOCH_STRIDE + len(grants)
            expiry = now + self.config.duration
            tag = self._key.sign(
                LeaseGrant.auth_input(key, holder, self.replica_id, epoch, expiry)
            )
            grant = LeaseGrant(key, holder, self.replica_id, epoch, expiry, tag)
            self._active[key] = grant
            grants.append(grant)
            del self._pending[key]
        return tuple(grants)

    def _drop_expired(self, now: float) -> None:
        for key in [k for k, g in self._active.items() if now >= g.expiry]:
            del self._active[key]

    # -- write parking ------------------------------------------------------

    def blocking_keys(self, keys, now: float) -> tuple[str, ...]:
        """Keys in ``keys`` a write must wait on before ordering."""
        blocked = []
        for key in keys:
            grant = self._active.get(key)
            if grant is not None and now < grant.expiry:
                blocked.append(key)
            elif key in self._revoking:
                blocked.append(key)  # ack or expiry still outstanding
        return tuple(blocked)

    def park(self, request, keys) -> None:
        self._parked.append([request, set(keys)])

    def is_revoking(self, key: str) -> bool:
        return key in self._revoking

    def begin_revoke(self, key: str) -> Optional[LeaseGrant]:
        """Move ``key`` into the revoking state; returns the grant to
        revoke, or None if a revocation is already in flight (or the
        lease vanished)."""
        if key in self._revoking:
            return None
        grant = self._active.pop(key, None)
        if grant is None:
            return None
        self._revoking[key] = grant
        return grant

    def make_revoke(self, grant: LeaseGrant) -> LeaseRevoke:
        tag = self._key.sign(
            LeaseRevoke.auth_input(grant.key, grant.epoch, grant.holder, self.replica_id)
        )
        return LeaseRevoke(grant.key, grant.epoch, grant.holder, self.replica_id, tag)

    def on_ack(self, key: str, epoch: int, holder: str) -> bool:
        """A verified LeaseRevokeAck arrived; returns whether it settles
        the outstanding revocation."""
        grant = self._revoking.get(key)
        if grant is None or grant.epoch != epoch or grant.holder != holder:
            return False
        del self._revoking[key]
        return True

    def on_revoke_expired(self, key: str, grant: LeaseGrant, now: float) -> bool:
        """The revocation timer fired; the lease is dead on the shared
        clock even if the (possibly partitioned) holder never acked."""
        if self._revoking.get(key) is not grant:
            return False
        if now < grant.expiry:
            return False
        del self._revoking[key]
        return True

    def release_key(self, key: str):
        """Clear ``key`` from every parked write; returns the requests
        that are no longer blocked on anything."""
        released = []
        remaining = []
        for entry in self._parked:
            entry[1].discard(key)
            if entry[1]:
                remaining.append(entry)
            else:
                released.append(entry[0])
        self._parked = remaining
        return tuple(released)

    def drain_parked(self):
        """View change / restart: abandon every parked write (clients
        retransmit; the new leader re-parks as needed)."""
        released = tuple(entry[0] for entry in self._parked)
        self._parked = []
        return released

    # -- leadership hand-over ----------------------------------------------

    def adopt(self, grants, now: float) -> int:
        """New leader: adopt the conservative mirror as the active set.

        Over-approximating is safe (writes park at most one lease
        duration for a lease that was in fact already revoked);
        under-approximating would be unsafe, and cannot happen because
        every grant rode a certified order this replica committed.
        """
        adopted = 0
        for grant in grants:
            if now >= grant.expiry:
                continue
            held = self._active.get(grant.key)
            if held is None or grant.epoch > held.epoch:
                self._active[grant.key] = grant
                adopted += 1
        return adopted

    def reset(self) -> None:
        """Leadership lost: stop granting; pending requests die."""
        self._pending.clear()


class LeaseGranter:
    """The lease-granting role of one replica; absent unless the Troxy
    build enables leases.

    The replica core reaches it at one-line seams: ``park_write`` (an
    admitted write), ``grants_for_slot`` (a slot being certified),
    ``observe`` (an installed order), ``sink`` (an executed slot),
    ``drop_parked`` and ``view_entered`` (view change, restart). The
    Troxy host sets the two sinks and feeds it lease requests and acks
    inline; a migration quiesces leases through ``revoke``.
    """

    def __init__(self, replica, manager: LeaseManager, directory: LeaseDirectory,
                 keys_fn: Optional[Callable] = None):
        self.replica = replica
        self.manager = manager  # leader-side granting/parking state
        self.directory = directory  # per-replica mirror of ordered grants
        self.keys_fn: Callable = keys_fn or single_key
        self.sink: Optional[Callable] = None  # executed grants -> enclave
        self.revoke_sink: Optional[Callable] = None  # self-revoke shortcut
        self._flush_armed = False

    # -- seams called by the replica core ------------------------------------

    def park_write(self, request: Request):
        """Single writer per key: a write to a leased key waits until
        every covering lease is revoked-and-acked or has expired on the
        shared clock (docs/READS.md). Returns whether it was parked."""
        if request.op.is_read or request.client_id == NOOP_REQUEST_CLIENT:
            return False
        parked = yield from self._park(request)
        if parked:
            self.replica.stats.lease_writes_parked += 1
        return parked

    def _park(self, request: Request):
        blocked = self.manager.blocking_keys(self.keys_fn(request.op), self.replica.env.now)
        if not blocked:
            return False
        self.manager.park(request, blocked)
        for key in blocked:
            yield from self.revoke(key)
        return True

    def grants_for_slot(self, seq: int) -> tuple[LeaseGrant, ...]:
        grants = self.manager.grants_for_slot(seq, self.replica.env.now)
        self.replica.stats.lease_grants_attached += len(grants)
        return grants

    def observe(self, grants) -> None:
        """Mirror every grant seen in the ordered stream: should this
        replica lead later, the mirror is its (conservative) view of
        which leases may still be live (docs/READS.md)."""
        for grant in grants:
            self.directory.observe(grant)

    def drop_parked(self) -> None:
        """View change / restart: abandon parked writes (clients
        retransmit; a new leader re-parks against its adopted leases)."""
        replica = self.replica
        for request in self.manager.drain_parked():
            replica._inflight.discard((request.client_id, request.request_id))
            replica.stats.lease_parked_dropped += 1

    def view_entered(self) -> None:
        """Pending requests of the old leadership die. A replica that now
        leads takes over granting by adopting its directory mirror as
        the active lease set: the mirror may over-approximate (a write
        then parks at most one lease duration) but cannot miss a lease
        below this replica's commit point — every grant rode a certified
        order."""
        self.manager.reset()
        if self.replica.is_leader:
            now = self.replica.env.now
            self.manager.adopt(self.directory.active(now), now)

    # -- requests and the grant flush ------------------------------------------

    def _open(self, msg, auth_input: bytes):
        """Charge receive + one MAC for a lease message and check its
        holder's tag; counts a bad one invalid."""
        replica = self.replica
        yield from replica.node.compute(replica._rx_cost(msg.wire_size) + replica._mac_cost_const)
        if replica.keyring.troxy_instance(msg.holder).verify(auth_input, msg.tag):
            return True
        replica.stats.invalid_messages += 1
        return False

    def handle_request(self, msg):
        """A Troxy asked for (or renewed) a read lease on one key.

        Fire-and-forget from the holder's perspective: the leader queues
        the request and the grant rides the next ordered slot. Refused
        silently when this replica is not leading or a view change is in
        flight — the holder re-requests after its backoff.
        """
        replica = self.replica
        if not (yield from self._open(msg, msg.auth_input(msg.key, msg.holder))):
            return
        if not replica.is_leader or replica._view_change_pending is not None:
            return
        if self.manager.note_request(msg.key, msg.holder, replica.env.now):
            self._arm_flush()

    def _arm_flush(self) -> None:
        """Queued grants must not depend on write traffic for delivery:
        if no slot is ordered within one backoff window, a noop slot is
        ordered to carry them. Read-only workloads renew leases through
        exactly this path."""
        if self._flush_armed:
            return
        self._flush_armed = True
        replica = self.replica
        replica.env.process(self._grant_flush(), name=f"{replica.replica_id}:lease-flush")

    def _grant_flush(self):
        replica = self.replica
        try:
            yield replica.env.timeout(self.manager.config.request_backoff)
            if replica.may_order and self.manager.has_pending():
                yield from replica._order(noop_request(replica.next_seq, replica.replica_id))
        finally:
            self._flush_armed = False

    # -- revocation and release --------------------------------------------------

    def handle_ack(self, ack):
        """A holder confirmed its lease is dead and fenced; writes parked
        behind that lease can be ordered."""
        if not (yield from self._open(ack, ack.auth_input(ack.key, ack.epoch, ack.holder))):
            return
        if self.manager.on_ack(ack.key, ack.epoch, ack.holder):
            yield from self._release_key(ack.key)

    def revoke(self, key: str):
        """Start revoking the lease covering ``key``: tell the holder to
        stop serving, and arm the expiry timer as the no-ack fallback
        (the holder may be partitioned — once the lease expires on the
        shared clock it cannot serve either way)."""
        replica = self.replica
        manager = self.manager
        grant = manager.begin_revoke(key)
        if grant is None:
            if not manager.is_revoking(key):
                # The lease vanished (expired) between the blocking check
                # and now: nothing blocks the parked write anymore.
                yield from self._release_key(key)
            return
        replica.stats.lease_revokes_sent += 1
        revoke = manager.make_revoke(grant)
        yield from replica.node.compute(replica._tx_cost(revoke.wire_size) + replica._mac_cost_const)
        if grant.holder == replica.replica_id and self.revoke_sink is not None:
            # Revoking our own co-located Troxy: straight into the ecall.
            yield from self.revoke_sink(revoke)
        else:
            replica._send(grant.holder, revoke, lease=key)
        replica.env.process(
            self._revoke_timer(key, grant), name=f"{replica.replica_id}:lease-timer"
        )

    def _revoke_timer(self, key: str, grant: LeaseGrant):
        replica = self.replica
        yield replica.env.timeout(max(grant.expiry - replica.env.now, 0.0))
        if replica._stopped:
            return
        if self.manager.on_revoke_expired(key, grant, replica.env.now):
            yield from self._release_key(key)

    def _release_key(self, key: str):
        """A lease stopped covering ``key``: re-dispatch every parked
        write that has no blocking keys left."""
        released = self.manager.release_key(key)
        self.replica.stats.lease_parked_released += len(released)
        for request in released:
            yield from self._order_released(request)

    def _order_released(self, request: Request):
        replica = self.replica
        if not replica.may_order:
            # The client retransmits to the new leader.
            replica._inflight.discard((request.client_id, request.request_id))
            return
        # A fresh lease that landed while this write was parked parks it
        # again, behind a new revocation round.
        if not (yield from self._park(request)):
            yield from replica._admit(request)
