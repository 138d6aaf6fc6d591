"""View change: the progress monitor and the ViewChange / NewView
exchange, as one role of a :class:`~.replica.Replica` (DESIGN.md D11).

The role owns the vote table, the progress deadline and one process
(``<replica>:monitor``); everything else it touches is the replica's
shared context. Certificates are made by ``replica.certify`` and checked
by ``replica.cert_binds`` / ``replica.order_binds``, including the ones
*nested* in a message: a ViewChange counts only as its sender's own
certified vote over genuine leader proposals, a NewView only with f+1
distinct such votes and the new leader's own certified re-proposals.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..crypto.primitives import digest_of
from .messages import Commit, NewView, Order, ViewChange, noop_request


class ViewChanger:
    """Progress monitoring and view installation for one replica."""

    def __init__(self, replica):
        self.replica = replica
        #: new view -> sender -> verified vote, in arrival order.
        self._votes: dict[int, dict[str, ViewChange]] = {}
        #: When ordered-but-unexecuted work must have moved, or the
        #: replica demands a view change; None while nothing is owed.
        self._deadline: Optional[float] = None
        self.handlers = {
            ViewChange: self._handle_view_change,
            NewView: self._handle_new_view,
        }

    def start(self) -> None:
        """Spawn the monitor (construction and every restart; the monitor
        of a crashed incarnation exits at its next poll)."""
        self.replica.env.process(self._monitor(), name=f"{self.replica.replica_id}:monitor")

    # -- the progress deadline -----------------------------------------------------

    def note_progress_needed(self) -> None:
        if self._deadline is None:
            self.rearm()

    def rearm(self) -> None:
        """Progress is owed within one timeout from now."""
        replica = self.replica
        self._deadline = replica.env.now + replica.config.progress_timeout

    def progress_made(self) -> None:
        # O(1) equivalent of scanning the log for an entry with an
        # installed order that has not executed yet.
        if self.replica._unexec_ordered > 0:
            self.rearm()
        else:
            self._deadline = None

    def _monitor(self):
        replica = self.replica
        poll = replica.config.progress_timeout / 4
        while True:
            yield replica.env.timeout(poll)
            if replica._stopped:
                return
            yield from replica.checkpoint.request_missing_orders()
            yield from replica.checkpoint.request_state()
            pending = replica._view_change_pending
            if pending is None:
                if self._deadline is not None and replica.env.now >= self._deadline:
                    yield from self._demand(replica.view + 1)
            elif replica.env.now >= self._deadline:
                # View change itself stalled: escalate.
                yield from self._demand(pending + 1)

    # -- ViewChange ------------------------------------------------------------------

    def _note(self, kind: str, **attrs) -> None:
        """Report a step of the (rare) view-change path."""
        replica = self.replica
        if replica.probe.on:
            replica.probe.event(kind, replica.replica_id, **attrs)

    def _certify_next(self, counter: str, content: bytes):
        replica = self.replica
        replica._ensure_counter(counter)
        return replica.certify(
            "certify_viewchange", counter, replica.counters.current(counter) + 1, content
        )

    def _demand(self, new_view: int):
        """Vote to move to ``new_view``: certify and broadcast this
        replica's stable checkpoint and prepared orders."""
        replica = self.replica
        if new_view <= replica.view:
            return
        replica.stats.view_changes += 1
        replica._view_change_pending = new_view
        replica._abandon_admitted()
        self.rearm()
        prepared = tuple(
            entry.order
            for seq, entry in sorted(replica.log.items())
            if entry.order is not None and seq > replica.stable_seq
        )
        prepared_digest = digest_of(*[order.digest() for order in prepared])
        content = ViewChange.content_digest(
            new_view, replica.stable_seq, prepared_digest, replica.replica_id
        )
        cert = yield from self._certify_next(ViewChange.COUNTER, content)
        vc = ViewChange(
            new_view, replica.stable_seq, replica.stable_snapshot, prepared,
            replica.replica_id, cert,
        )
        self._note("proto.viewchange", view=new_view)
        self._votes.setdefault(new_view, {})[vc.sender] = vc
        yield from replica.node.compute(replica._tx_cost(vc.wire_size))
        replica._broadcast(vc)
        yield from self._maybe_install_view(new_view)

    def _vote_binds(self, vc: ViewChange) -> bool:
        """``vc`` is its sender's own certified vote over exactly the
        checkpoint number and prepared orders it carries, each of them a
        genuine leader proposal. Not covered (ROADMAP item 7): the state
        snapshot is outside ``ViewChange.content_digest``, so
        :meth:`_enter_view` adopts it on the most advanced vote's word."""
        replica = self.replica
        return replica.cert_binds(
            vc.cert, vc.sender, ViewChange.COUNTER, None, vc.digest()
        ) and all(replica.order_binds(order) for order in vc.prepared)

    def _handle_view_change(self, vc: ViewChange):
        replica = self.replica
        yield from replica.node.compute(replica._rx_cost(vc.wire_size) + replica._mac_cost_const)
        if vc.new_view <= replica.view:
            return
        if not self._vote_binds(vc):
            replica.stats.invalid_messages += 1
            return
        votes = self._votes.setdefault(vc.new_view, {})
        votes[vc.sender] = vc
        # Join the view change once f+1 replicas demand it, or immediately
        # if we will lead the new view.
        if replica._view_change_pending is None and (
            len(votes) >= replica.config.f + 1
            or replica.config.leader_of(vc.new_view) == replica.replica_id
        ):
            yield from self._demand(vc.new_view)
            return
        yield from self._maybe_install_view(vc.new_view)

    # -- NewView ---------------------------------------------------------------------

    def _enter_view(self, view: int, view_changes: Iterable[ViewChange]) -> None:
        """Adopt the most advanced stable checkpoint among the votes,
        then reset every piece of view-scoped state for ``view``. The
        new leader and its followers enter a view the same way."""
        replica = self.replica
        best = max(view_changes, key=lambda vc: vc.stable_seq)
        if best.stable_seq > replica.stable_seq:
            replica.stable_seq = best.stable_seq
            replica.stable_snapshot = best.state_snapshot
            if replica.next_exec <= best.stable_seq:
                replica.app.restore(best.state_snapshot)
                replica.next_exec = best.stable_seq + 1
            replica.checkpoint.truncate_log()
        replica.view = view
        replica._view_change_pending = None
        replica._abandon_admitted()
        if replica.leasing is not None:
            replica.leasing.view_entered()
        replica._ensure_counter(Commit.counter(view))
        replica._pending_orders.clear()
        replica._next_order_intake = replica.stable_seq + 1

    def _maybe_install_view(self, new_view: int):
        """New leader: once f+1 ViewChanges arrived, install the view."""
        replica = self.replica
        if replica.config.leader_of(new_view) != replica.replica_id:
            return
            yield  # pragma: no cover - generator marker
        votes = self._votes.get(new_view, {})
        if len(votes) < replica.config.f + 1 or replica.view >= new_view:
            return
        replica._ensure_counter(Order.counter(new_view))
        self._enter_view(new_view, votes.values())
        # Union of prepared orders above the checkpoint.
        union: dict[int, Order] = {}
        for vc in votes.values():
            for order in vc.prepared:
                if order.seq > replica.stable_seq:
                    known = union.get(order.seq)
                    if known is None or order.view > known.view:
                        union[order.seq] = order
        max_seq = max(union, default=replica.stable_seq)
        # Never hand out a slot this replica has already executed (its
        # execution may be ahead of both the adopted checkpoint and the
        # prepared union).
        replica.next_seq = max(max_seq + 1, replica.next_exec)
        reproposals = []
        for seq in range(replica.stable_seq + 1, max_seq + 1):
            old = union.get(seq)
            request = old.request if old is not None else noop_request(seq, replica.replica_id)
            # Re-proposals must carry the original grants forward: a
            # replica that only learns this slot from the new view still
            # mirrors the grant, so a third leader in quick succession
            # cannot miss a lease that is still being served.
            grants = old.grants if old is not None else ()
            content = Order.content_digest(new_view, seq, request.digest(), grants)
            cert = yield from replica.certify(
                "certify_order", Order.counter(new_view), seq, content
            )
            order = Order(new_view, seq, request, cert, replica.replica_id, grants)
            reproposals.append(order)
            if seq >= replica.next_exec:
                entry = replica._install_order(order)
                entry.committed = False
                entry.commit_senders = {replica.replica_id: cert}
        content = NewView.content_digest(
            new_view, digest_of(*[o.digest() for o in reproposals]), replica.replica_id
        )
        cert = yield from self._certify_next(NewView.COUNTER, content)
        new_view_msg = NewView(
            new_view, tuple(votes.values()), tuple(reproposals), replica.replica_id, cert
        )
        yield from replica.node.compute(replica._tx_cost(new_view_msg.wire_size))
        replica._broadcast(new_view_msg)
        self._note("proto.newview", view=new_view)
        for seq in sorted(union):
            replica._maybe_committed(seq)
        self.progress_made()

    def _new_view_binds(self, nv: NewView) -> bool:
        """``nv`` is its view's leader's installation, certified over
        exactly the re-proposals it carries, with f+1 distinct valid
        votes for that very view; every re-proposal is that leader's own
        certified ORDER in that view."""
        replica = self.replica
        config = replica.config
        return (
            nv.sender == config.leader_of(nv.view)
            and replica.cert_binds(nv.cert, nv.sender, NewView.COUNTER, None, nv.digest())
            and len(nv.view_changes) >= config.f + 1
            and len({vc.sender for vc in nv.view_changes}) == len(nv.view_changes)
            and all(vc.new_view == nv.view and self._vote_binds(vc) for vc in nv.view_changes)
            and all(order.view == nv.view and replica.order_binds(order) for order in nv.orders)
        )

    def _handle_new_view(self, nv: NewView):
        replica = self.replica
        yield from replica.node.compute(replica._rx_cost(nv.wire_size) + replica._mac_cost_const)
        if nv.view <= replica.view:
            return
        if not self._new_view_binds(nv):
            replica.stats.invalid_messages += 1
            return
        self._enter_view(nv.view, nv.view_changes)
        # Drop uncommitted state from older views; the new leader's
        # re-proposals overwrite those slots.
        for seq, entry in list(replica.log.items()):
            if not entry.executed and seq > replica.stable_seq:
                if entry.order is not None:
                    replica._unexec_ordered -= 1
                entry.order = None
                entry.committed = False
                entry.commit_senders = {}
        self._note("proto.newview", view=nv.view, installed=True)
        yield replica._order_lock.request()
        try:
            for order in sorted(nv.orders, key=lambda o: o.seq):
                replica._pending_orders[order.seq] = order
            while replica._next_order_intake in replica._pending_orders:
                next_order = replica._pending_orders.pop(replica._next_order_intake)
                yield from replica._commit_order(next_order)
                replica._next_order_intake += 1
        finally:
            replica._order_lock.release()
        self.progress_made()
