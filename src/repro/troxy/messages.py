"""Troxy-to-Troxy cache protocol messages (Fig. 4).

Queries and replies are authenticated under the Troxy group secret
bound to the sending instance's identifier, and carry a nonce so a
malicious relaying replica cannot replay an earlier (stale) answer for
a new query. Only reply *digests* travel between replicas — the paper's
hash optimization (Section VI-C2).

Messages are immutable by convention, checked by the write-once test
(``tests/test_records.py``); the four sent per operation are slotted
records with a hand-written ``__init__`` (DESIGN.md D28).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto.primitives import DIGEST_SIZE, MAC_SIZE, intern_digest

_HEADER = 16


@dataclass(slots=True, init=False, unsafe_hash=True)
class CacheQuery:
    """Ask a remote Troxy for its cache entry for one read request."""

    request_digest: bytes
    asker: str  # replica id whose Troxy is voting
    nonce: int
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, request_digest, asker, nonce, tag):
        self.request_digest = request_digest
        self.asker = asker
        self.nonce = nonce
        self.tag = tag
        self.wire_size = _HEADER + DIGEST_SIZE + len(asker) + 8 + MAC_SIZE

    @staticmethod
    def auth_input(request_digest: bytes, asker: str, nonce: int) -> bytes:
        return b"CQ|" + request_digest + b"|" + asker.encode() + b"|" + nonce.to_bytes(8, "big")


@dataclass(slots=True, init=False, unsafe_hash=True)
class BatchedReply:
    """All of one agreement batch's replies bound for one origin Troxy.

    Batched agreement (docs/BATCHING.md) executes a whole batch before
    any reply leaves the replica, so the replies for one origin can ride
    a single message authenticated as a unit under the *sending* Troxy
    instance's key — one MAC and one enclave crossing at each end
    instead of one per reply. The per-reply ``troxy_tag`` is omitted;
    the bundle tag covers every reply's auth bytes, which is the same
    trust statement (this Troxy instance vouches for these replies).
    """

    sender: str  # replica id of the authenticating Troxy
    replies: tuple  # tuple[Reply, ...], all with origin == the recipient
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, sender, replies, tag):
        if not replies:
            raise ValueError("BatchedReply needs at least one reply")
        self.sender = sender
        self.replies = replies
        self.tag = tag
        self.wire_size = (
            _HEADER + len(sender) + MAC_SIZE + sum(reply.wire_size for reply in replies)
        )

    def __len__(self) -> int:
        return len(self.replies)

    @staticmethod
    def auth_input(sender: str, replies) -> bytes:
        parts = [b"BR", sender.encode()]
        parts.extend(reply.auth_bytes() for reply in replies)
        return b"|".join(parts)


@dataclass(slots=True, init=False, unsafe_hash=True)
class ForwardedRequest:
    """A client request handed to its key's owning group (docs/SHARDING.md).

    In a sharded deployment the Troxy that terminates the client's TLS
    session may not co-locate with the agreement group owning the key.
    The fronting Troxy stays the reply convergence point (``origin`` on
    the embedded request names it), and forwards the authenticated BFT
    request to one replica of the owning group — its hinted leader for
    an operation that will be ordered, the same-index replica otherwise
    (docs/SHARDING.md, "Forwarding"). The message is target-independent:
    nothing in it, tag included, names the receiver, so any replica of
    the owning group handles it alike. The tag is computed under the
    *forwarder's* Troxy instance key over the request's own
    ``auth_bytes()``: the receiving enclave thereby knows a genuine
    Troxy — not the untrusted host — produced the translation from
    client envelope to BFT request, and producing it is the one request
    authentication the fronting enclave pays.
    """

    request: object  # hybster Request; origin == forwarder
    forwarder: str  # replica id of the fronting Troxy
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, request, forwarder, tag):
        self.request = request
        self.forwarder = forwarder
        self.tag = tag
        self.wire_size = _HEADER + request.wire_size + len(forwarder) + MAC_SIZE

    @staticmethod
    def auth_input(request, forwarder: str) -> bytes:
        return b"FW|" + request.auth_bytes() + b"|" + forwarder.encode()


@dataclass(frozen=True)
class ShardFastReply:
    """A remote group's fast-read verdict for a forwarded read.

    When the owning group's Troxy resolves a forwarded read on its fast
    path (local cache hit corroborated by f remote caches, Fig. 4), it
    vouches for the result to the fronting Troxy with this message
    instead of falling back to ordering. One Troxy enclave attesting a
    completed f+1 cache agreement to another carries the same trust as
    a :class:`CacheEntryReply` — mutually attested enclaves under the
    shared group secret — so the fronting voter accepts it as final.
    """

    reply: object  # hybster Reply carrying the cached result
    responder: str  # replica id of the attesting Troxy
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "wire_size",
            _HEADER + self.reply.wire_size + len(self.responder) + MAC_SIZE,
        )

    @staticmethod
    def auth_input(reply, responder: str) -> bytes:
        return b"SF|" + reply.auth_bytes() + b"|" + responder.encode()


@dataclass(slots=True, init=False, unsafe_hash=True)
class CacheEntryReply:
    """A remote Troxy's answer: the digest of its cached reply, if any."""

    request_digest: bytes
    reply_digest: Optional[bytes]  # None => not cached at the remote
    responder: str
    nonce: int
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, request_digest, reply_digest, responder, nonce, tag):
        self.request_digest = request_digest
        self.reply_digest = reply_digest
        self.responder = responder
        self.nonce = nonce
        self.tag = tag
        size = _HEADER + DIGEST_SIZE + len(responder) + 8 + MAC_SIZE
        if reply_digest is not None:
            size += DIGEST_SIZE
        self.wire_size = size

    @staticmethod
    def auth_input(
        request_digest: bytes, reply_digest: Optional[bytes], responder: str, nonce: int
    ) -> bytes:
        return (
            b"CR|"
            + request_digest
            + b"|"
            + (reply_digest if reply_digest is not None else b"<none>")
            + b"|"
            + responder.encode()
            + b"|"
            + nonce.to_bytes(8, "big")
        )


@dataclass(frozen=True)
class LeaseGrant:
    """Leader-issued read lease for one key (docs/READS.md).

    Grants ride inside ORDER messages (``Order.grants``) so every
    replica learns about them in agreement order and the order
    certificate covers them — an untrusted host cannot strip or forge a
    grant in a relayed order. ``epoch`` is derived from the carrying
    sequence number, so the epochs one holder installs are strictly
    increasing: the holder's sealed ``troxy-lease`` counter fences each
    install and a rolled-back enclave can never re-install an old grant.
    The tag is computed under the granting leader's Troxy instance key.
    """

    key: str
    holder: str  # replica id of the Troxy allowed to serve lease reads
    granter: str  # replica id of the issuing leader
    epoch: int
    expiry: float  # absolute time on the shared simulation clock
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "wire_size",
            _HEADER + len(self.key) + len(self.holder) + len(self.granter)
            + 16 + MAC_SIZE,
        )

    @staticmethod
    def auth_input(
        key: str, holder: str, granter: str, epoch: int, expiry: float
    ) -> bytes:
        return (
            b"LG|" + key.encode() + b"|" + holder.encode() + b"|"
            + granter.encode() + b"|" + epoch.to_bytes(8, "big") + b"|"
            + expiry.hex().encode()
        )

    def digest(self) -> bytes:
        try:
            return self._digest
        except AttributeError:
            cached = intern_digest(
                self.auth_input(
                    self.key, self.holder, self.granter, self.epoch, self.expiry
                )
            )
            object.__setattr__(self, "_digest", cached)
            return cached


@dataclass(frozen=True)
class LeaseRequest:
    """A Troxy asking its group leader for (or renewing) a read lease.

    Fire-and-forget: the requester keeps serving through the voted path
    until a grant arrives in an ordered slot. Signed under the
    requesting Troxy's instance key; a forged request can at worst cause
    a harmless grant to a Troxy that never asked.
    """

    key: str
    holder: str  # replica id of the requesting Troxy
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "wire_size", _HEADER + len(self.key) + len(self.holder) + MAC_SIZE
        )

    @staticmethod
    def auth_input(key: str, holder: str) -> bytes:
        return b"LQ|" + key.encode() + b"|" + holder.encode()


@dataclass(frozen=True)
class LeaseRevoke:
    """Leader order to a holder: stop serving lease reads for ``key``.

    Sent before the leader orders a write to a leased key; the write
    stays parked until the holder acknowledges (or the lease expires on
    the shared clock). The holder drops the lease, bumps the key's
    cache-invalidation epoch, and burns the grant epoch in its sealed
    counter so a late or replayed grant can never resurrect the lease.
    """

    key: str
    epoch: int
    holder: str  # replica id of the lease holder being revoked
    sender: str  # replica id of the revoking leader
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "wire_size",
            _HEADER + len(self.key) + 8 + len(self.holder) + len(self.sender)
            + MAC_SIZE,
        )

    @staticmethod
    def auth_input(key: str, epoch: int, holder: str, sender: str) -> bytes:
        return (
            b"LR|" + key.encode() + b"|" + epoch.to_bytes(8, "big") + b"|"
            + holder.encode() + b"|" + sender.encode()
        )


@dataclass(frozen=True)
class LeaseRevokeAck:
    """Holder confirmation that a lease is dead and fenced.

    Must be authentic: a forged ack would release a parked write while
    the holder still serves lease reads. Signed under the holder's
    Troxy instance key and verified by the leader before the write is
    unparked.
    """

    key: str
    epoch: int
    holder: str
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "wire_size",
            _HEADER + len(self.key) + 8 + len(self.holder) + MAC_SIZE,
        )

    @staticmethod
    def auth_input(key: str, epoch: int, holder: str) -> bytes:
        return (
            b"LA|" + key.encode() + b"|" + epoch.to_bytes(8, "big") + b"|"
            + holder.encode()
        )

