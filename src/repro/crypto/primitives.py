"""Real cryptographic primitives.

Digests and MACs are computed with :mod:`hashlib`/:mod:`hmac` so that
tampering, forgery, and replay in fault-injection tests are *actually
detected* rather than flagged by simulation bookkeeping. The cost of the
operations in simulated time is charged separately via
:mod:`repro.crypto.costs`.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass

DIGEST_SIZE = 32
MAC_SIZE = 32


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def digest_of(*parts: bytes) -> bytes:
    """Digest of length-prefixed parts (unambiguous concatenation)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


#: Entries per generation of the crypto memos. Reuse comes soon after an
#: entry is made: on the perf ledger 99 % of tag reuses are within
#: 92-487 sign() calls of the previous use, so two generations of 1 024
#: compute the same HMACs per operation as a 65 536-entry memo to within
#: 0.13 % (docs/PERFORMANCE.md, "Host memory").
GENERATION = 1024


class _Memo:
    """A memo of two generations of at most :data:`GENERATION` entries.

    A lookup tries ``young`` (callers probe it inline, so a hit is one
    ``dict.get``), then :meth:`miss` tries ``old``. A miss in ``young``,
    or a hit found only in ``old``, inserts into ``young``; a ``young``
    that already holds GENERATION entries becomes ``old`` first, and the
    previous ``old`` is dropped. So an entry is served for at least
    GENERATION further inserts, and the memo never holds more than
    2 * GENERATION. No LRU: its bookkeeping would cost every hit.
    """

    __slots__ = ("young", "old")

    def __init__(self) -> None:
        self.young: dict = {}
        self.old: dict = {}

    def miss(self, key, compute, *args):
        """The value for ``key`` after a miss in ``young``:
        ``compute(*args)`` unless ``old`` holds it."""
        value = self.old.get(key)
        if value is None:
            value = compute(*args)
        young = self.young
        if len(young) >= GENERATION:
            self.old = young
            self.young = young = {}
        young[key] = value
        return value


# Interned-digest memo: protocol code frequently recomputes digest_of()
# over identical immutable parts (every replica in a 2f+1 group hashes
# the same ORDER content, every voter re-hashes the same reply).
_digests = _Memo()


def intern_digest(*parts: bytes) -> bytes:
    """Memoized :func:`digest_of` for immutable, hashable parts.

    While the parts are memoized, repeated calls return the same bytes
    object, which makes downstream equality checks and dict lookups
    cheap; once the entry has aged out the digest is recomputed (equal,
    but a new object).
    """
    digest = _digests.young.get(parts)
    if digest is None:
        digest = _digests.miss(parts, digest_of, *parts)
    return digest


# Tag memo shared across MacKey instances, keyed by (secret, data).
# Every node derives its own MacKey objects from the cluster master via
# its own KeyRing, so a per-instance cache would never let a verifier
# reuse the signer's computation; keying by the secret itself does,
# while still computing a fresh HMAC for tampered data or forged keys.
_tags = _Memo()
# hmac.digest() takes the one-shot C fast path; equivalent to
# hmac.new(secret, data, sha256).digest(). Every tag sign() computes
# goes through this one name.
_hmac_digest = _hmac.digest


@dataclass(frozen=True)
class MacKey:
    """A symmetric HMAC-SHA256 key shared between principals."""

    key_id: str
    secret: bytes

    def sign(self, data: bytes) -> bytes:
        key = (self.secret, data)
        tag = _tags.young.get(key)
        if tag is None:
            tag = _tags.miss(key, _hmac_digest, self.secret, data, "sha256")
        return tag

    def verify(self, data: bytes, tag: bytes) -> bool:
        return _hmac.compare_digest(self.sign(data), tag)


def derive_key(master: bytes, *labels: str) -> bytes:
    """Derive a sub-key from a master secret and a label path."""
    material = master
    for label in labels:
        material = _hmac.digest(material, label.encode("utf-8"), "sha256")
    return material
