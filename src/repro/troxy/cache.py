"""The managed fast-read cache (Section IV).

Entries are keyed by the *request identity* (digest of the canonical
read request, the paper's ``id(req)``) and indexed by the application
state keys they depend on, so a write can invalidate exactly the
entries it outdates — before the write's reply becomes visible.

Writes never *update* the cache ("a faulty replica should not be able
to pollute the cache", Section IV-B); entries are only installed from
voted results of ordered reads, and only removed by write invalidation,
capacity eviction, or enclave reboot.

Memory accounting: with ``store_outside`` (the paper's optimization) a
cached reply body lives encrypted in untrusted memory and only its
digest occupies EPC; otherwise the full entry counts against the EPC.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..crypto.primitives import DIGEST_SIZE
from ..hybster.messages import Reply
from ..sgx.enclave import Enclave


@dataclass(slots=True, init=False)
class CacheEntry:
    """One cached read result.

    ``voted`` marks entries corroborated by f+1 distinct Troxies (a
    completed reply vote or a successful fast-read quorum); entries
    installed from the local replica's execution alone stay unvoted.
    The lease read path (docs/READS.md) serves only voted entries — a
    lease removes the per-read quorum, so the entry itself must already
    carry f+1 trust.
    """

    request_digest: bytes
    reply: Reply
    keys: tuple[str, ...]
    voted: bool = False

    def __init__(self, request_digest, reply, keys, voted=False):
        self.request_digest = request_digest
        self.reply = reply
        self.keys = keys
        self.voted = voted

    @property
    def enclave_bytes(self) -> int:
        return DIGEST_SIZE * 2 + sum(len(k) for k in self.keys) + 16


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    installs: int = 0
    invalidations: int = 0
    evictions: int = 0
    clears: int = 0
    batch_sweeps: int = 0  # up-front whole-batch invalidation passes


class FastReadCache:
    """LRU cache of read results with write invalidation."""

    def __init__(
        self,
        enclave: Optional[Enclave] = None,
        max_entries: int = 65536,
        store_outside: bool = True,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.enclave = enclave
        self.max_entries = max_entries
        self.store_outside = store_outside
        self.stats = CacheStats()
        self._entries: OrderedDict[bytes, CacheEntry] = OrderedDict()
        self._key_index: dict[str, set[bytes]] = {}
        # Per-key invalidation epochs: bumped on every write invalidation
        # (whether or not an entry existed), so the voter can tell that a
        # read result crossed a write and must not be (re-)installed —
        # see key_epoch() and FastReadProber.install_voted.
        self._epoch = 0
        self._key_epoch: dict[str, int] = {}
        if enclave is not None:
            enclave.on_reboot(self.clear)

    def __len__(self) -> int:
        return len(self._entries)

    def _entry_footprint(self, entry: CacheEntry) -> int:
        if self.store_outside:
            return entry.enclave_bytes
        return entry.enclave_bytes + entry.reply.result.size

    def get(self, request_digest: bytes) -> Optional[Reply]:
        """Look up the cached reply for a read request; counts hit/miss."""
        entry = self._entries.get(request_digest)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(request_digest)
        self.stats.hits += 1
        return entry.reply

    def get_voted(self, request_digest: bytes) -> Optional[Reply]:
        """Like :meth:`get`, but only returns f+1-corroborated entries
        (the lease serve path must not trust the local replica alone)."""
        entry = self._entries.get(request_digest)
        if entry is None or not entry.voted:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(request_digest)
        self.stats.hits += 1
        return entry.reply

    def promote(self, request_digest: bytes) -> bool:
        """Mark an entry voted after an f+1 corroboration (a completed
        fast-read quorum counts: f remote caches matched the local one)."""
        entry = self._entries.get(request_digest)
        if entry is None:
            return False
        entry.voted = True
        return True

    def peek(self, request_digest: bytes) -> Optional[Reply]:
        """Look up without touching hit/miss statistics or LRU order."""
        entry = self._entries.get(request_digest)
        return None if entry is None else entry.reply

    def install(
        self,
        request_digest: bytes,
        reply: Reply,
        keys: tuple[str, ...],
        voted: bool = False,
    ) -> None:
        """Install an ordered-read result (``voted`` when it carries an
        f+1 reply quorum rather than just the local replica's word)."""
        self.remove(request_digest)
        entry = CacheEntry(request_digest, reply, keys, voted=voted)
        self._entries[request_digest] = entry
        for key in keys:
            self._key_index.setdefault(key, set()).add(request_digest)
        if self.enclave is not None:
            self.enclave.allocate(self._entry_footprint(entry))
        self.stats.installs += 1
        while len(self._entries) > self.max_entries:
            oldest_digest = next(iter(self._entries))
            self.remove(oldest_digest)
            self.stats.evictions += 1

    def remove(self, request_digest: bytes) -> bool:
        entry = self._entries.pop(request_digest, None)
        if entry is None:
            return False
        for key in entry.keys:
            digests = self._key_index.get(key)
            if digests is not None:
                digests.discard(request_digest)
                if not digests:
                    del self._key_index[key]
        if self.enclave is not None:
            self.enclave.free(self._entry_footprint(entry))
        return True

    def invalidate_keys(self, keys) -> int:
        """Remove every entry depending on any of ``keys``.

        Called while processing a write, *before* the write's reply is
        authenticated — the ordering that makes fast reads linearizable.

        The per-key epoch is bumped even when no entry exists: the point
        is to fence *in-flight* read results (a voted read completing
        after this write must not install a pre-write value).
        """
        removed = 0
        self._epoch += 1
        for key in keys:
            self._key_epoch[key] = self._epoch
            for digest in list(self._key_index.get(key, ())):
                if self.remove(digest):
                    removed += 1
        self.stats.invalidations += removed
        return removed

    def key_epoch(self, keys) -> int:
        """Latest invalidation epoch across ``keys`` (0 = never written).

        The voter snapshots this when an ordered read enters the vote and
        compares it again before installing the voted result: if any of
        the read's keys were invalidated in between, a write overtook the
        read in real time and installing the result would resurrect a
        stale entry that the write already purged.
        """
        return max((self._key_epoch.get(key, 0) for key in keys), default=0)

    def invalidate_batch(self, keys) -> int:
        """One up-front sweep over the union of a batch's written keys.

        Called before *any* reply of a batched slot is authenticated, so
        no reply in the batch can become visible while an entry it
        outdates is still servable (docs/BATCHING.md). Each key in the
        union is visited once even when several writes in the batch
        touch it.
        """
        self.stats.batch_sweeps += 1
        return self.invalidate_keys(keys)

    def clear(self) -> None:
        """Drop everything (enclave reboot: volatile state is lost)."""
        if self.enclave is not None:
            for entry in self._entries.values():
                self.enclave.free(self._entry_footprint(entry))
        self._entries.clear()
        self._key_index.clear()
        self.stats.clears += 1
