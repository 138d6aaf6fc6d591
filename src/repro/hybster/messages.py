"""Protocol messages of the Hybster-style hybrid BFT protocol.

Hybster [13] orders requests with a leader whose ORDER messages are
certified by a trusted monotonic counter: the counter value *is* the
sequence number, so a Byzantine leader cannot assign two requests to the
same slot. Followers acknowledge with counter-certified COMMITs; a slot
is committed once f+1 of the 2f+1 replicas have certified it.

All messages expose ``auth_bytes()`` (the canonical byte string covered
by MACs / counter certificates) and ``wire_size`` (modelled bytes on the
wire, used by the network simulation).

Messages are immutable by convention, checked by the write-once test
(``tests/test_records.py``), so every derived quantity is computed once:
``wire_size`` is precomputed at construction (cost models read it on
every hop), per-instance digests are cached on first use, and content
digests go through :func:`repro.crypto.primitives.intern_digest` so the
2f+1 replicas that each hash the same ORDER/COMMIT content share one
SHA-256 evaluation (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from ..apps.base import Operation, OpKind, Payload
from ..crypto.primitives import DIGEST_SIZE, MAC_SIZE, digest_of, intern_digest
from ..sgx.counters import CounterCertificate

_HEADER = 16  # type tag, lengths, framing


class _Memo:
    """The digest memos of a message: slots set to ``None`` at
    construction and filled on first use. They are not dataclass
    fields, so ``==``, ``hash``, ``repr`` and ``replace`` ignore them."""

    __slots__ = ("_digest", "_auth")


@dataclass(slots=True, init=False, unsafe_hash=True)
class Request(_Memo):
    """A client operation as it enters the BFT protocol.

    ``origin`` names the contact point replies must converge on: the
    replica whose Troxy submitted it (Troxy mode) or the client itself
    (baseline mode). ``unordered`` marks read-optimization requests that
    replicas execute without ordering.
    """

    client_id: str
    request_id: int
    op: Operation
    origin: str
    unordered: bool = False
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, client_id, request_id, op, origin, unordered=False):
        self.client_id = client_id
        self.request_id = request_id
        self.op = op
        self.origin = origin
        self.unordered = unordered
        self.wire_size = _HEADER + len(client_id) + 8 + op.size + len(origin)
        self._digest = self._auth = None

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            cached = self._digest = digest_of(
                self.client_id.encode(),
                self.request_id.to_bytes(8, "big"),
                self.op.digest(),
                b"u" if self.unordered else b"o",
            )
        return cached

    def auth_bytes(self) -> bytes:
        cached = self._auth
        if cached is None:
            cached = self._auth = b"REQ" + self.digest()
        return cached


NOOP_REQUEST_CLIENT = "__noop__"


def noop_request(seq: int, origin: str) -> Request:
    """Filler request used to close gaps during view changes."""
    op = Operation(OpKind.WRITE, "noop", key="__noop__")
    return Request(NOOP_REQUEST_CLIENT, seq, op, origin)


@dataclass(slots=True, init=False, unsafe_hash=True)
class Batch(_Memo):
    """An ordered run of client requests agreed on as one slot.

    The leader certifies a single monotonic-counter value for the whole
    batch; replicas execute the entries strictly in tuple order, so the
    batch digest must commit to both the entries *and* their order. A
    single-request batch is never put on the wire — the leader emits the
    bare :class:`Request` instead, keeping the pre-batching wire format
    (and the fig5 message flow) byte-for-byte intact at batch size 1.
    """

    requests: tuple[Request, ...]
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, requests):
        if len(requests) < 2:
            raise ValueError(f"a Batch carries at least two requests, got {len(requests)}")
        self.requests = requests
        self.wire_size = _HEADER + sum(request.wire_size for request in requests)
        self._digest = None

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def digest(self) -> bytes:
        """Order-sensitive digest over the entry digests (deterministic
        for a given request tuple; see tests/property)."""
        cached = self._digest
        if cached is None:
            cached = self._digest = digest_of(
                b"BATCH",
                len(self.requests).to_bytes(4, "big"),
                *[request.digest() for request in self.requests],
            )
        return cached

    def auth_bytes(self) -> bytes:
        return b"BATCH" + self.digest()


@dataclass(slots=True, init=False, unsafe_hash=True)
class Reply(_Memo):
    """A replica's reply to one request.

    Carries the digest of the original request (extension (2) in
    Section IV-A) so a Troxy can identify which cache entry a write
    outdates, and optionally ``troxy_tag`` — the HMAC computed by the
    *replica's Troxy* under the group secret bound to its instance id
    (extension (1)): the voter only counts Troxy-authenticated replies.
    """

    replica_id: str
    client_id: str
    request_id: int
    result: Payload
    request_digest: bytes
    view: int = 0
    troxy_tag: Optional[bytes] = None
    #: False when the replica re-emitted this reply from its duplicate-
    #: suppression cache instead of executing the request now. The flag
    #: is a header bit (no wire-size contribution) but is folded into
    #: ``auth_bytes`` so the untrusted host relaying the reply cannot
    #: pass a replay off as a fresh execution: a replayed read carries
    #: its *original* execution position's value, and the voting Troxy
    #: must never (re-)install it into the fast-read cache
    #: (docs/READS.md).
    fresh: bool = True
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(
        self, replica_id, client_id, request_id, result, request_digest,
        view=0, troxy_tag=None, fresh=True,
    ):
        self.replica_id = replica_id
        self.client_id = client_id
        self.request_id = request_id
        self.result = result
        self.request_digest = request_digest
        self.view = view
        self.troxy_tag = troxy_tag
        self.fresh = fresh
        size = _HEADER + len(replica_id) + len(client_id) + 8 + result.size + DIGEST_SIZE
        if troxy_tag is not None:
            size += MAC_SIZE
        self.wire_size = size
        self._auth = None

    def result_digest(self) -> bytes:
        return self.result.digest()

    def auth_bytes(self) -> bytes:
        cached = self._auth
        if cached is None:
            cached = self._auth = b"|".join(
                [
                    b"REPLY",
                    self.replica_id.encode(),
                    self.client_id.encode(),
                    self.request_id.to_bytes(8, "big"),
                    self.result_digest(),
                    self.request_digest,
                    b"\x01" if self.fresh else b"\x00",
                ]
            )
        return cached

    def matches(self, other: "Reply") -> bool:
        """Vote equality: same request answered with the same result."""
        return (
            self.client_id == other.client_id
            and self.request_id == other.request_id
            and self.request_digest == other.request_digest
            and self.result_digest() == other.result_digest()
        )


@dataclass(slots=True, init=False, unsafe_hash=True)
class Forward:
    """Follower-to-leader request relay (Fig. 5c's extra phase)."""

    request: Request
    sender: str
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, request, sender):
        self.request = request
        self.sender = sender
        self.wire_size = _HEADER + request.wire_size + len(sender)

    def auth_bytes(self) -> bytes:
        return b"FWD" + self.sender.encode() + self.request.digest()


@dataclass(slots=True, init=False, unsafe_hash=True)
class Order(_Memo):
    """Leader proposal binding ``request`` to slot ``seq`` in ``view``.

    ``cert.value == seq`` by construction; followers verify both the
    certificate and the continuity of the counter values.
    """

    view: int
    seq: int
    request: Request
    cert: CounterCertificate
    sender: str
    #: Read-lease grants piggybacked on this slot (docs/READS.md). Empty
    #: in any lease-free deployment: the wire size and content digest are
    #: then byte-identical to the historical format. Non-empty grants are
    #: folded into the certified content digest, so a relaying host can
    #: neither strip nor alter them without invalidating the order cert.
    grants: tuple = ()
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, view, seq, request, cert, sender, grants=()):
        self.view = view
        self.seq = seq
        self.request = request
        self.cert = cert
        self.sender = sender
        self.grants = grants
        size = _HEADER + 16 + request.wire_size + cert.wire_size
        if grants:
            size += sum(grant.wire_size for grant in grants)
        self.wire_size = size
        self._digest = None

    @staticmethod
    @lru_cache(maxsize=None)
    def counter(view: int) -> str:
        """The leader's trusted counter for ``view``'s ORDERs; memoised,
        both sides of the wire name it for every message."""
        return f"order/{view}"

    @staticmethod
    def content_digest(
        view: int, seq: int, request_digest: bytes, grants: tuple = ()
    ) -> bytes:
        if grants:
            return intern_digest(
                b"ORDER", view.to_bytes(8, "big"), seq.to_bytes(8, "big"),
                request_digest, *(grant.digest() for grant in grants),
            )
        return intern_digest(
            b"ORDER", view.to_bytes(8, "big"), seq.to_bytes(8, "big"), request_digest
        )

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            cached = self._digest = self.content_digest(
                self.view, self.seq, self.request.digest(), self.grants
            )
        return cached


@dataclass(slots=True, init=False, unsafe_hash=True)
class Commit(_Memo):
    """A replica's counter-certified acknowledgement of an Order."""

    view: int
    seq: int
    request_digest: bytes
    cert: CounterCertificate
    sender: str
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, view, seq, request_digest, cert, sender):
        self.view = view
        self.seq = seq
        self.request_digest = request_digest
        self.cert = cert
        self.sender = sender
        self.wire_size = _HEADER + 16 + DIGEST_SIZE + cert.wire_size
        self._digest = None

    @staticmethod
    @lru_cache(maxsize=None)
    def counter(view: int) -> str:
        """Each replica's trusted counter for ``view``'s COMMITs."""
        return f"commit/{view}"

    @staticmethod
    def content_digest(view: int, seq: int, request_digest: bytes, sender: str) -> bytes:
        return intern_digest(
            b"COMMIT",
            view.to_bytes(8, "big"),
            seq.to_bytes(8, "big"),
            request_digest,
            sender.encode(),
        )

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            cached = self._digest = self.content_digest(
                self.view, self.seq, self.request_digest, self.sender
            )
        return cached


@dataclass(slots=True, init=False, unsafe_hash=True)
class Checkpoint:
    """Periodic state digest; f+1 matching ones make a checkpoint stable."""

    seq: int
    state_digest: bytes
    sender: str
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, seq, state_digest, sender):
        self.seq = seq
        self.state_digest = state_digest
        self.sender = sender
        self.wire_size = _HEADER + 8 + DIGEST_SIZE + len(sender)

    def auth_bytes(self) -> bytes:
        return b"CHKPT" + self.seq.to_bytes(8, "big") + self.state_digest + self.sender.encode()


@dataclass(frozen=True)
class ViewChange:
    """A replica's vote to move to ``new_view``.

    Carries the stable checkpoint and every Order the replica has
    accepted above it; the counter certificate makes the vote
    non-equivocating.
    """

    new_view: int
    stable_seq: int
    state_snapshot: bytes
    prepared: tuple[Order, ...]
    sender: str
    cert: CounterCertificate

    COUNTER = "viewchange"  # the sender's trusted counter for these votes

    @staticmethod
    def content_digest(new_view: int, stable_seq: int, prepared_digest: bytes, sender: str) -> bytes:
        return digest_of(
            b"VIEWCHANGE",
            new_view.to_bytes(8, "big"),
            stable_seq.to_bytes(8, "big"),
            prepared_digest,
            sender.encode(),
        )

    def digest(self) -> bytes:
        prepared_digest = digest_of(*[order.digest() for order in self.prepared])
        return self.content_digest(self.new_view, self.stable_seq, prepared_digest, self.sender)

    @property
    def wire_size(self) -> int:
        return (
            _HEADER
            + 16
            + len(self.state_snapshot)
            + sum(order.wire_size for order in self.prepared)
            + self.cert.wire_size
        )


@dataclass(frozen=True)
class NewView:
    """New leader's view installation: proofs plus re-proposed Orders."""

    view: int
    view_changes: tuple[ViewChange, ...]
    orders: tuple[Order, ...]
    sender: str
    cert: CounterCertificate

    COUNTER = "newview"  # the new leader's trusted counter for installations

    @staticmethod
    def content_digest(view: int, orders_digest: bytes, sender: str) -> bytes:
        return digest_of(b"NEWVIEW", view.to_bytes(8, "big"), orders_digest, sender.encode())

    def digest(self) -> bytes:
        orders_digest = digest_of(*[order.digest() for order in self.orders])
        return self.content_digest(self.view, orders_digest, self.sender)

    @property
    def wire_size(self) -> int:
        return (
            _HEADER
            + 8
            + sum(vc.wire_size for vc in self.view_changes)
            + sum(order.wire_size for order in self.orders)
            + self.cert.wire_size
        )


@dataclass(frozen=True)
class FetchOrders:
    """Ask a peer to resend ORDERs for a gap in the sequence space.

    Sent when a replica's in-order intake stalls behind buffered orders
    (e.g. messages dropped during a view installation window)."""

    view: int
    first: int
    last: int
    sender: str

    def auth_bytes(self) -> bytes:
        return (
            b"FETCH"
            + self.view.to_bytes(8, "big")
            + self.first.to_bytes(8, "big")
            + self.last.to_bytes(8, "big")
            + self.sender.encode()
        )

    @property
    def wire_size(self) -> int:
        return _HEADER + 24 + len(self.sender)


@dataclass(frozen=True)
class StateRequest:
    """Ask a peer for the application state at its stable checkpoint.

    Sent by a replica that can no longer catch up from its own log —
    after recovering from a crash, or when the cluster's stable
    checkpoint ran ahead of the orders it ever received."""

    low_water: int  # requester executes up to here; anything newer helps
    sender: str

    def auth_bytes(self) -> bytes:
        return b"STREQ" + self.low_water.to_bytes(8, "big") + self.sender.encode()

    @property
    def wire_size(self) -> int:
        return _HEADER + 8 + len(self.sender)


@dataclass(frozen=True)
class StateResponse:
    """A stable checkpoint's full state.

    The requester only installs it if ``digest_of(seq, snapshot)``
    matches a digest it has seen f+1 replicas vote for — a single
    (possibly Byzantine) responder cannot install garbage."""

    seq: int
    snapshot: bytes
    high_water: int  # responder's last executed slot (catch-up horizon)
    sender: str

    def auth_bytes(self) -> bytes:
        return (
            b"STRSP" + self.seq.to_bytes(8, "big")
            + digest_of(self.snapshot)
            + self.high_water.to_bytes(8, "big") + self.sender.encode()
        )

    @property
    def wire_size(self) -> int:
        return _HEADER + 16 + len(self.snapshot) + len(self.sender)


@dataclass(slots=True, init=False, unsafe_hash=True)
class Tagged:
    """A message carried with a pairwise HMAC tag (non-counter messages)."""

    msg: object
    sender: str
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, msg, sender, tag):
        self.msg = msg
        self.sender = sender
        self.tag = tag
        self.wire_size = msg.wire_size + MAC_SIZE  # type: ignore[attr-defined]
