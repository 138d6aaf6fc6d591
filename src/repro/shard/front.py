"""The shard front: the cross-group role of a Troxy enclave
(docs/SHARDING.md, "Forwarding").

Attached by ``repro.deploy`` when the deployment has more than one
agreement group; a one-group Troxy has no front, no router and neither
of the two ecalls below (DESIGN.md D13). It lives here so that
:mod:`repro.troxy` imports nothing shard-shaped.
"""

from __future__ import annotations

from ..hybster.messages import Reply, Request
from ..troxy.core import OWN_GROUP, WAIT, Action, TroxyCore, Waiter
from ..troxy.messages import ForwardedRequest, ShardFastReply
from .migrate import shard_keys_fn
from .router import ShardRouter


class ShardFront:
    """Hands a request to the group that owns its key, and serves the
    requests other groups' Troxies hand to this one.

    Mutable state: the per-group leader hint. The router is the
    deployment's shared routing table. Attaching the front also makes
    the core's key extraction cover the migration bulk operations, whose
    keys travel in the operation body.
    """

    ecalls = ("handle_forwarded_request", "handle_shard_fast_reply")
    handlers = {
        ForwardedRequest: "handle_forwarded_request",
        ShardFastReply: "handle_shard_fast_reply",
    }

    def __init__(self, core: TroxyCore, router: ShardRouter):
        self.core = core
        self.router = router
        # Leader-aware forwarding: per foreign group, the highest view
        # it was seen deciding a forwarded request in (advisory,
        # monotone) and when it last did — the hint is acted on only
        # while that evidence of a live leader is fresh.
        self._leader_hint: dict[str, tuple[int, float]] = {}
        core.keys_fn = shard_keys_fn
        core.enclave.on_reboot(self._leader_hint.clear)

    # -- seams called by the core ------------------------------------------------------

    def route(self, request: Request, waiter: Waiter):
        """Dispose of ``request`` unless this group owns its key: returns
        None for a local key, else the Action that rejects or forwards
        the request.

        A client's request is handed to the owning group while this
        Troxy stays the reply convergence point: the voter record is
        registered exactly as for a local ordering — replies from the
        owning group's replicas converge on ``origin`` (this replica) —
        but names the foreign group, so the result is never installed
        locally. The forward tag is the request authentication intake
        already charged, so forwarding adds no simulated cost of its
        own. A forwarded request that is not local *here* is a straggler
        that crossed a ring cut-over in flight: it is passed to the new
        owner under a tag of its own. The original origin is preserved,
        so the vote stream still converges at the fronting Troxy
        wherever the request finally orders.
        """
        core = self.core
        decision = self.router.route(request.op, core.replica_id)
        if decision.kind == "local":
            return None
        if decision.kind == "frozen":
            # The key's ring slice is mid-migration: reject the write
            # and let the legacy client's retransmission land it after
            # the cut-over.
            core.stats.frozen_rejects += 1
            return Action("drop", reason="key frozen for shard migration")
        if waiter.front:
            core.stats.reforwards += 1
            cost = core.mac_cost_digest
        else:
            core.stats.forwarded_out += 1
            core.open_record(request, waiter, decision.group)
            cost = 0.0
        tag = yield from core.sign(
            ForwardedRequest.auth_input(request, core.replica_id), cost
        )
        target = self._target(decision, request.op)
        if core.probe.on:
            core.probe.event("shard.forward", core.node.name, request, target=target)
        forward = ForwardedRequest(request, core.replica_id, tag)
        return Action("forward", dst=target, message=forward)

    def _target(self, decision, op) -> str:
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
        core = self.core
        if op.is_read and (core.prober is not None or core.holder is not None):
            return decision.target
        hint = self._leader_hint.get(decision.group)
        if hint is None:
            return decision.target
        view, decided_at = hint
        if core.node.env.now - decided_at > core.config.progress_timeout:
            return decision.target
        return self.router.leader_of(decision.group, view)

    def group_decided(self, group: str, quorum: list) -> None:
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
        self._leader_hint[group] = (view, self.core.node.env.now)

    def attest(self, request: Request, result, request_digest: bytes):
        """Vouch to the fronting Troxy for the served result of a read
        it forwarded: f+1 caches of this group agreed on it, or a lease
        covers it, which carries the same trust."""
        core = self.core
        reply = Reply(
            replica_id=core.replica_id,
            client_id=request.client_id,
            request_id=request.request_id,
            result=result,
            request_digest=request_digest,
        )
        tag = yield from core.sign(
            ShardFastReply.auth_input(reply, core.replica_id),
            core.mac_cost(reply.wire_size),
        )
        core.stats.shard_fast_replies_sent += 1
        verdict = ShardFastReply(reply, core.replica_id, tag)
        return Action("send", dst=request.origin, message=verdict)

    # -- ecalls -------------------------------------------------------------------------

    def handle_forwarded_request(self, fwd: ForwardedRequest):
        """A fronting Troxy handed us a request whose key this group
        owns (ecall #10). Verify the forwarder's Troxy authentication,
        then admit the request like a locally translated one, except
        that the fronting Troxy (the request's ``origin``) waits for the
        answer and keeps the voter state."""
        core = self.core
        request = fwd.request
        if not isinstance(request, Request):
            core.stats.invalid_messages += 1
            return Action("drop", reason="not a forwarded request")
        if not (yield from core.check_tag(
            fwd.forwarder, ForwardedRequest.auth_input(request, fwd.forwarder),
            fwd.tag, core.mac_cost_digest,
        )):
            return Action("drop", reason="bad forward tag")
        core.stats.forwarded_in += 1
        if core.probe.on:
            # The hop (transit plus this host's queueing) ends here.
            core.probe.event("shard.received", core.node.name, request)
        return (yield from core.admit(request, Waiter(request, front=request.origin)))

    def handle_shard_fast_reply(self, sfr: ShardFastReply):
        """The owning group's attested fast-read verdict for a request
        we forwarded (ecall #11). One Troxy enclave vouching for a
        completed f+1 cache agreement carries the same trust as a
        CacheEntryReply — mutually attested enclaves under the group
        secret — so the verdict is final: seal it for the client."""
        core = self.core
        reply = sfr.reply
        if not isinstance(reply, Reply):
            core.stats.invalid_messages += 1
            return Action("drop", reason="not a shard fast reply")
        if not (yield from core.check_tag(
            sfr.responder, ShardFastReply.auth_input(reply, sfr.responder),
            sfr.tag, core.mac_cost(reply.wire_size),
        )):
            return Action("drop", reason="bad shard fast reply tag")
        key = (reply.client_id, reply.request_id)
        pending = core._pending.get(key)
        if pending is None or pending.group == OWN_GROUP:
            return WAIT  # late, replayed, or fallback already voted
        del core._pending[key]
        core.stats.shard_fast_replies_accepted += 1
        # Foreign key: never installed into the local cache — its cache
        # entries and invalidation epochs live in the owning group only.
        return (yield from core.deliver(
            pending.request, pending.waiter, reply.result, reply.request_digest
        ))
