"""The fast-read prober: the Fig. 4 role of a Troxy enclave.

Absent when the deployment runs without fast reads; then nothing is
installed into the cache, no probe is sent or answered, and the
enclave has none of the three ecalls below (DESIGN.md D13).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..hybster.messages import Reply, Request
from .core import WAIT, Action, TroxyCore, Waiter
from .messages import CacheEntryReply, CacheQuery


@dataclass(slots=True, init=False)
class _FastRead:
    """State of one outstanding fast-read quorum check."""

    request: Request
    waiter: Waiter
    local_reply: Reply
    expected: set[str] = field(default_factory=set)

    def __init__(self, request, waiter, local_reply, expected=None):
        self.request = request
        self.waiter = waiter
        self.local_reply = local_reply
        self.expected = set() if expected is None else expected


class FastReadProber:
    """Installs read results into the core's cache, and serves a read
    from it once f remote caches corroborate the local entry.

    Mutable state: the outstanding probes by nonce, the nonce counter,
    the probe RNG. The cache, the conflict monitor and the counters stay
    with the core (``core.cache``, ``core.monitor``, ``core.stats``).
    """

    ecalls = ("answer_cache_query", "handle_cache_entry_reply", "fast_read_timeout")
    handlers = {
        CacheQuery: "answer_cache_query",
        CacheEntryReply: "handle_cache_entry_reply",
    }

    def __init__(self, core: TroxyCore, rng):
        self.core = core
        self.rng = rng
        self._outstanding: dict[int, _FastRead] = {}
        self._nonces = itertools.count(1)
        core.enclave.on_reboot(self._outstanding.clear)

    def request_of(self, nonce: int) -> Optional[Request]:
        state = self._outstanding.get(nonce)
        return None if state is None else state.waiter.client_request

    # -- seams called by the core: what enters the cache ---------------------------------

    def install_local(self, request: Request, reply: Reply):
        """Install the local replica's result for an ordered read. A
        faulty local replica can only poison *this* cache; the fast-read
        path requires f+1 matching entries from distinct Troxies, so a
        poisoned entry can never reach a client."""
        core = self.core
        yield from core.node.compute(core.hash_cost(request.op.size))
        core.cache.install(request.op.digest(), reply, core.keys_fn(request.op))

    def install_voted(self, pending, reply: Reply, matching: list) -> None:
        """Install the *voted* ordered-read result — unless a write to
        any of its keys was invalidated while the quorum was forming. A
        late vote completing after such a write would otherwise
        resurrect the exact entry the write purged, and f other lagging
        Troxies could then corroborate the stale value into a fast read.

        A quorum of *replayed* replies (duplicate-suppression answers to
        a client retransmission) is decided but never installed: the
        replay carries the value from the request's original execution
        position, so the entry may predate writes that were invalidated
        long before this Troxy ordered the retransmission — its epoch
        snapshot cannot see that. Harmless to a voted fast read (remote
        caches were purged, so no f+1 corroboration), but a read lease
        would serve it locally (docs/READS.md).
        """
        core = self.core
        op = pending.request.op
        keys = core.keys_fn(op)
        if not all(vote.fresh for vote in matching):
            core.stats.replay_installs_skipped += 1
        elif core.cache.key_epoch(keys) == pending.install_epoch:
            core.cache.install(op.digest(), reply, keys, voted=True)
        else:
            core.stats.stale_installs_skipped += 1

    def try_read(self, request: Request, waiter: Waiter):
        """Fig. 4, check_cache: local lookup then f remote probes.
        Returns the "query" Action, or None on a cache miss (the read is
        then ordered like any other request)."""
        core = self.core
        core.stats.fast_read_attempts += 1
        probe = core.probe
        token = None
        if probe.on:
            token = probe.begin("troxy.cache", core.node.name, waiter.client_request)
        outcome = "miss"
        try:
            yield from core.node.compute(core.hash_cost(request.op.size))
            # Cache identity is the *operation*, shared across clients.
            request_digest = request.op.digest()
            cached = core.cache.get(request_digest)
            if cached is None:
                core.monitor.record_miss()
                return None
            yield from core.load_cached(cached)
            nonce = next(self._nonces)
            replicas = [r for r in core.config.replica_ids if r != core.replica_id]
            chosen = self.rng.sample(replicas, core.config.f)
            queries = []
            for replica_id in chosen:
                tag = yield from core.sign(
                    CacheQuery.auth_input(request_digest, core.replica_id, nonce),
                    core.mac_cost_digest,
                )
                queries.append(
                    (replica_id, CacheQuery(request_digest, core.replica_id, nonce, tag))
                )
            self._outstanding[nonce] = _FastRead(request, waiter, cached, set(chosen))
            outcome = "probe"
            return Action("query", queries=tuple(queries), nonce=nonce)
        finally:
            if token is not None:
                probe.end(token, outcome=outcome)

    # -- ecalls: remote cache protocol ---------------------------------------------------

    def answer_cache_query(self, query: CacheQuery):
        """Fig. 4, get_remote_cache_entry (ecall #3)."""
        core = self.core
        if not (yield from core.check_tag(
            query.asker,
            CacheQuery.auth_input(query.request_digest, query.asker, query.nonce),
            query.tag, core.mac_cost_digest,
        )):
            return Action("drop", reason="bad cache query tag")
        core.stats.cache_queries_answered += 1
        cached = core.cache.peek(query.request_digest)
        reply_digest = None if cached is None else cached.result_digest()
        tag = yield from core.sign(
            CacheEntryReply.auth_input(
                query.request_digest, reply_digest, core.replica_id, query.nonce
            ),
            core.mac_cost_digest,
        )
        answer = CacheEntryReply(
            query.request_digest, reply_digest, core.replica_id, query.nonce, tag
        )
        return Action("send", dst=query.asker, message=answer)

    def handle_cache_entry_reply(self, answer: CacheEntryReply):
        """Fig. 4, the quorum comparison at the voting Troxy (ecall #4)."""
        core = self.core
        state = self._outstanding.get(answer.nonce)
        if state is None:
            return WAIT  # late or replayed: nothing outstanding
        if not (yield from core.check_tag(
            answer.responder,
            CacheEntryReply.auth_input(
                answer.request_digest, answer.reply_digest, answer.responder, answer.nonce
            ),
            answer.tag, core.mac_cost_digest,
        )):
            return Action("drop", reason="bad cache reply tag")
        if answer.responder not in state.expected:
            return WAIT
        state.expected.discard(answer.responder)
        request_digest = state.request.op.digest()
        matches = (
            answer.request_digest == request_digest
            and answer.reply_digest == state.local_reply.result_digest()
        )
        if not matches:
            del self._outstanding[answer.nonce]
            core.monitor.record_conflict()
            core.stats.fast_read_conflicts += 1
            if core.probe.on:
                core.probe.event(
                    "troxy.fast_read", core.node.name, state.waiter.client_request,
                    outcome="conflict",
                )
            # Entry may be outdated: drop it and order the read instead.
            core.cache.remove(request_digest)
            return core.order(state.request, state.waiter)
        if state.expected:
            return WAIT
        # All f remote caches match the local one: fast read succeeds.
        del self._outstanding[answer.nonce]
        core.monitor.record_fast_success()
        core.stats.fast_read_hits += 1
        # f remote caches corroborated the local entry — that is an f+1
        # agreement, so the entry now carries enough trust for the lease
        # serve path (docs/READS.md).
        core.cache.promote(request_digest)
        if core.probe.on:
            core.probe.event(
                "troxy.fast_read", core.node.name, state.waiter.client_request,
                outcome="hit",
            )
        local = state.local_reply
        return (yield from core.deliver(
            state.request, state.waiter, local.result, local.request_digest
        ))

    def fast_read_timeout(self, nonce: int):
        """Unresponsive remote Troxy: fall back to ordering (ecall #5)."""
        core = self.core
        state = self._outstanding.pop(nonce, None)
        if state is None:
            return WAIT
        core.monitor.record_conflict()
        core.stats.fast_read_timeouts += 1
        if core.probe.on:
            core.probe.event(
                "troxy.fast_read", core.node.name, state.waiter.client_request,
                outcome="timeout",
            )
        return core.order(state.request, state.waiter)
