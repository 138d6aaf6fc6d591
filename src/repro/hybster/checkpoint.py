"""Checkpointing, log truncation and catch-up (FetchOrders, state
transfer), as one role of a :class:`~.replica.Replica` (DESIGN.md D11).

The role owns the checkpoint vote table and the state-transfer offers
and no standing process (the view-change role's monitor, and one
``<replica>:catchup`` process per restart, drive its requests). All of
its messages are MAC-tagged, not counter-certified: out through
``replica.send_tagged``, in through ``replica.open_tagged``. Nothing
here crosses the trusted boundary.
"""

from __future__ import annotations

from typing import Optional

from ..crypto.primitives import digest_of
from .messages import Checkpoint, FetchOrders, StateRequest, StateResponse, Tagged


class Checkpointer:
    """Stable checkpoints and everything a lagging replica needs."""

    def __init__(self, replica):
        self.replica = replica
        #: slot -> sender -> state digest voted for.
        self._votes: dict[int, dict[str, bytes]] = {}
        #: (slot, state digest) -> senders that offered that very state.
        self._state_offers: dict[tuple[int, bytes], set[str]] = {}
        self.handlers = {
            (Tagged, Checkpoint): self._handle_checkpoint,
            (Tagged, FetchOrders): self._handle_fetch_orders,
            (Tagged, StateRequest): self._handle_state_request,
            (Tagged, StateResponse): self._handle_state_response,
        }

    # -- checkpoints ---------------------------------------------------------------

    def emit(self, seq: int):
        """Slot ``seq`` closed a checkpoint interval: vote for the state."""
        replica = self.replica
        snapshot = replica.app.snapshot()
        state_digest = digest_of(seq.to_bytes(8, "big"), snapshot)
        checkpoint = Checkpoint(seq, state_digest, replica.replica_id)
        self._note_vote(checkpoint, snapshot)
        yield from replica.send_tagged(checkpoint)

    def _handle_checkpoint(self, tagged: Tagged):
        checkpoint = yield from self.replica.open_tagged(tagged)
        if checkpoint is not None:
            self._note_vote(checkpoint, None)

    def _note_vote(self, checkpoint: Checkpoint, snapshot: Optional[bytes]) -> None:
        replica = self.replica
        votes = self._votes.setdefault(checkpoint.seq, {})
        votes[checkpoint.sender] = checkpoint.state_digest
        matching = sum(
            1 for digest in votes.values() if digest == checkpoint.state_digest
        )
        if matching >= replica.config.f + 1 and checkpoint.seq > replica.stable_seq:
            replica.stable_seq = checkpoint.seq
            if snapshot is not None:
                replica.stable_snapshot = snapshot
            elif replica.next_exec > checkpoint.seq:
                replica.stable_snapshot = replica.app.snapshot()
            replica.stats.checkpoints_stable += 1
            self.truncate_log()

    def truncate_log(self) -> None:
        # Never drop entries this replica still has to execute, even when
        # the cluster's stable checkpoint has moved past them (a lagging
        # replica catches up from its own log).
        replica = self.replica
        log = replica.log
        cut = min(replica.stable_seq, replica.next_exec - 1)
        for seq in [s for s in log if s <= cut]:
            entry = log.pop(seq)
            if entry.order is not None and not entry.executed:
                replica._unexec_ordered -= 1
        for seq in [s for s in self._votes if s < replica.stable_seq]:
            del self._votes[seq]

    # -- missing orders ------------------------------------------------------------

    def request_missing_orders(self):
        """Intake stalled behind buffered orders: ask peers for the gap."""
        replica = self.replica
        if not replica._pending_orders:
            return
            yield  # pragma: no cover - generator marker
        first_buffered = min(replica._pending_orders)
        if first_buffered <= replica._next_order_intake:
            return
        fetch = FetchOrders(
            replica.view, replica._next_order_intake, first_buffered - 1, replica.replica_id
        )
        yield from replica.send_tagged(fetch, replica.LEADER)

    def _handle_fetch_orders(self, tagged: Tagged):
        replica = self.replica
        fetch = yield from replica.open_tagged(tagged)
        if fetch is None:
            return
        for seq in range(fetch.first, fetch.last + 1):
            entry = replica.log.get(seq)
            if entry is not None and entry.order is not None:
                yield from replica.node.compute(replica._tx_cost(entry.order.wire_size))
                replica._send(tagged.sender, entry.order, refetch=seq)

    # -- state transfer ------------------------------------------------------------

    def request_state(self, probe: bool = False):
        """Fetch checkpointed state when this replica cannot catch up by
        itself: it is stuck behind the cluster's stable checkpoint, or it
        just recovered (``probe``) and must ask whether it missed
        anything — peers only answer if they are ahead."""
        replica = self.replica
        if not probe and replica.stable_seq < replica.next_exec:
            return
            yield  # pragma: no cover - generator marker
        entry = replica.log.get(replica.next_exec)
        if entry is not None and entry.order is not None:
            return  # we still hold the next slot: normal path will run it
        yield from replica.send_tagged(StateRequest(replica.next_exec - 1, replica.replica_id))

    def _handle_state_request(self, tagged: Tagged):
        replica = self.replica
        request = yield from replica.open_tagged(tagged)
        if request is None:
            return
        if replica.stable_seq <= request.low_water:
            return  # nothing newer to offer
        response = StateResponse(
            replica.stable_seq, replica.stable_snapshot, replica.next_exec - 1, replica.replica_id
        )
        yield from replica.send_tagged(
            response, tagged.sender,
            extra=replica.profile.hash_cost(len(response.snapshot)),
            state=response.seq,
        )

    def _handle_state_response(self, tagged: Tagged):
        replica = self.replica
        response = yield from replica.open_tagged(
            tagged, extra=replica.profile.hash_cost(len(tagged.msg.snapshot))
        )
        if response is None:
            return
        if response.seq < replica.next_exec:
            return  # we caught up by ourselves in the meantime
        # Install only state that f+1 distinct replicas agree on: either
        # we already tallied f+1 checkpoint votes for this digest, or we
        # have collected f+1 identical StateResponses.
        f = replica.config.f
        expected = digest_of(response.seq.to_bytes(8, "big"), response.snapshot)
        votes = self._votes.get(response.seq, {})
        checkpoint_matches = sum(1 for digest in votes.values() if digest == expected)
        offers = self._state_offers.setdefault((response.seq, expected), set())
        offers.add(tagged.sender)
        if checkpoint_matches < f + 1 and len(offers) < f + 1:
            return  # keep waiting for corroboration
        self._state_offers.clear()
        replica.app.restore(response.snapshot)
        replica.stable_snapshot = response.snapshot
        replica.stable_seq = max(replica.stable_seq, response.seq)
        replica.next_exec = response.seq + 1
        replica._next_order_intake = max(replica._next_order_intake, response.seq + 1)
        replica._pending_orders = {
            seq: order for seq, order in replica._pending_orders.items()
            if seq > response.seq
        }
        replica.stats.state_transfers += 1
        self.truncate_log()
        if replica.probe.on:
            replica.probe.event("proto.statetransfer", replica.replica_id, seq=response.seq)
        replica.viewchange.progress_made()
        if response.high_water >= replica.next_exec:
            # Fetch the slots committed after the checkpoint; peers still
            # hold them in their logs.
            fetch = FetchOrders(
                replica.view, replica.next_exec, response.high_water, replica.replica_id
            )
            yield from replica.send_tagged(fetch)
