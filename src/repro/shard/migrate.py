"""Live shard migration: move a slice of the ring between groups.

The protocol (docs/SHARDING.md) hands a set of ring tokens — and every
key hashing into them — from a source group to a destination group
while both keep serving traffic for everything else:

1. **Freeze.** Writes to moving keys are rejected at every Troxy (the
   shared router's freeze predicate); legacy clients retry through their
   normal timeout loop and succeed after the cut-over. Reads keep being
   served by the source group throughout.
2. **Fence.** An ordered write of a pinned source-group key. Because
   execution is slot-ordered group-wide, its completion proves f+1
   source replicas have executed every write admitted before the
   freeze *that was ordered before the fence*.
3. **Collect.** Pull application snapshots from source replicas, keep
   only those that contain the fence marker, filter them down to the
   moving keys, and require f+1 replicas agreeing on the filtered
   digest — the untrusted hosts cannot forge the moved state.
4. **Install.** Submit the filtered state as one ordered
   ``shard_install`` operation to the destination group (pinned key),
   so every destination replica applies it at the same slot: the
   transfer is checkpoint-consistent and survives a destination leader
   crash like any other client request.
5. **Stabilise.** Repeat fence/collect until two consecutive rounds
   produce the same digest: a pre-freeze write still in flight past the
   first fence shows up as a digest change and triggers a reinstall.
6. **Certify.** Each live destination replica's trusted subsystem
   creates a migration counter and certifies the manifest digest at
   value 1; f+1 verifying certificates attest that the destination
   group accepted exactly this state.
7. **Cut over.** Reassign the tokens and lift the freeze in one
   indivisible step (no simulated yields between the two), then retire
   the moved keys at the source with an ordered ``shard_retire``.

Known limitation (also in docs/SHARDING.md): a write admitted at the
source before the freeze and retried by its client after the cut-over
can execute in both groups. For the KV store all writes are idempotent
single-key overwrites, so the duplicate execution is harmless.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..apps.kvstore import (
    decode_key_list,
    decode_kv_records,
    encode_kv_records,
    shard_install,
    shard_retire,
)
from ..apps.kvstore import put as kv_put
from .router import pinned_group


class MigrationError(Exception):
    """The handoff could not complete; the freeze has been lifted."""


def shard_keys_fn(op) -> tuple:
    """Key extraction covering the migration bulk ops.

    ``shard_install``/``shard_retire`` carry their affected keys in the
    operation body; every one of them must be invalidated in the
    executing group's fast-read caches, or a cache entry for a migrated
    key could serve the pre-migration value after the handoff.
    """
    if op.name == "shard_install":
        return tuple(key for key, _value in decode_kv_records(op.body.content))
    if op.name == "shard_retire":
        return tuple(decode_key_list(op.body.content))
    return (op.key,)


def filter_kv_snapshot(snapshot: bytes, pred) -> list[tuple[str, bytes]]:
    """Decode a KvStore snapshot and keep the keys matching ``pred``.

    Pinned (``__g{N}/``) keys never migrate and are excluded up front,
    whatever ``pred`` says about their ring position.
    """
    return [
        (key, value)
        for key, value in decode_kv_records(snapshot)
        if pinned_group(key) is None and pred(key)
    ]


def manifest_digest(pairs) -> bytes:
    return hashlib.sha256(b"shard-manifest|" + encode_kv_records(pairs)).digest()


@dataclass
class MigrationReport:
    """What one migration did, for the chaos campaigns and tests."""

    migration_id: str
    src: str
    dst: str
    tokens: int
    moved_keys: int = 0
    rounds: int = 0
    certificates: int = 0
    manifest: str = ""
    started_at: float = 0.0
    cutover_at: float = 0.0
    completed_at: float = 0.0
    completed: bool = False
    reason: str = ""

    @property
    def frozen_for(self) -> float:
        return (self.cutover_at or self.completed_at) - self.started_at


@dataclass
class ShardMigrator:
    """Drives live handoffs on one sharded deployment.

    ``migrate`` is a process generator: spawn it on the deployment's
    environment (the ShardMigration fault does) or ``yield from`` it.
    """

    cluster: object
    reports: list = field(default_factory=list)
    #: wait between fence rounds for in-flight pre-freeze writes to land
    drain_delay: float = 0.05
    #: retry interval while waiting for f+1 matching snapshots
    collect_retry: float = 0.02
    max_rounds: int = 8

    def migrate(self, src: str, dst: str, fraction: float = 0.5):
        """Process generator: move ``fraction`` of ``src``'s tokens to ``dst``."""
        cluster = self.cluster
        env = cluster.env
        ring = cluster.ring
        router = cluster.router
        if dst not in router.members:
            raise ValueError(f"unknown destination group: {dst!r}")
        if src == dst:
            raise ValueError("source and destination are the same group")
        mid = f"m{len(self.reports)}"
        tokens = ring.plan_move(src, dst, fraction)
        report = MigrationReport(
            migration_id=mid, src=src, dst=dst, tokens=len(tokens),
            started_at=env.now,
        )
        self.reports.append(report)
        if not tokens:
            report.completed_at = env.now
            report.reason = "nothing to move"
            return report

        moving = ring.keys_moving(tokens)
        router.freeze(moving)
        client = cluster.new_client()
        try:
            yield from self._quiesce_leases(src, moving)
            pairs, rounds = yield from self._stable_state(
                client, src, moving, mid
            )
            report.rounds = rounds
            report.moved_keys = len(pairs)
            digest = manifest_digest(pairs)
            report.manifest = digest.hex()

            if pairs:
                yield from client.invoke(
                    shard_install(f"__{dst}/mig/{mid}/install", pairs)
                )
            report.certificates = self._certify_destination(dst, mid, digest)
        except MigrationError as exc:
            router.unfreeze()
            report.completed_at = env.now
            report.reason = str(exc)
            return report

        # Atomic cut-over: reassign the tokens and lift the freeze with
        # no simulated yields in between — no request can ever observe
        # the new owner while writes are still frozen, or vice versa.
        ring.apply_move(tokens, dst)
        router.unfreeze()
        report.cutover_at = env.now

        retire_keys = [key for key, _value in pairs]
        if retire_keys:
            yield from client.invoke(
                shard_retire(f"__{src}/mig/{mid}/retire", retire_keys)
            )
        report.completed_at = env.now
        report.completed = True
        return report

    # -- lease quiesce -------------------------------------------------------------

    def _quiesce_leases(self, src: str, moving):
        """Revoke read leases covering the moving keys before collection.

        A live lease on a moving key would let its holder keep serving
        local reads from pre-migration state after the cut-over. With
        the write freeze already up no *new* lease can be granted on
        these keys (the grantable veto refuses frozen keys), so one
        sweep — revoke every active grant, then wait for each to be
        acknowledged or to lapse on the shared clock — quiesces them.
        """
        env = self.cluster.env
        leasing = self.cluster.group(src).leader.leasing
        if leasing is None:
            return
        manager = leasing.manager
        keys = tuple(key for key in list(manager._active) if moving(key))
        if not keys:
            return
        horizon = max(manager._active[key].expiry for key in keys)
        for key in keys:
            yield from leasing.revoke(key)
        deadline = max(horizon, env.now) + 60 * self.collect_retry
        while any(manager.is_revoking(key) for key in keys):
            if env.now >= deadline:
                raise MigrationError(
                    "lease quiesce on moving keys did not settle"
                )
            yield env.timeout(self.collect_retry)

    # -- fenced state collection ---------------------------------------------------

    def _stable_state(self, client, src: str, moving, mid: str):
        """Fence/collect until two consecutive rounds agree on the digest."""
        env = self.cluster.env
        previous = None
        pairs = []
        for round_no in range(1, self.max_rounds + 1):
            yield env.timeout(self.drain_delay)
            fence_key = f"__{src}/mig/{mid}/fence/{round_no}"
            marker = f"fence-{mid}-{round_no}".encode()
            yield from client.invoke(kv_put(fence_key, marker))
            pairs = yield from self._collect(src, moving, fence_key, marker)
            digest = manifest_digest(pairs)
            if previous == digest:
                return pairs, round_no
            previous = digest
        raise MigrationError(
            f"moved-key state did not stabilise in {self.max_rounds} fence rounds"
        )

    def _collect(self, src: str, moving, fence_key: str, marker: bytes):
        """f+1 fence-executed source replicas agreeing on the moved state."""
        env = self.cluster.env
        group = self.cluster.group(src)
        quorum = group.config.commit_quorum
        deadline = env.now + 60 * self.collect_retry
        while True:
            by_digest: dict[bytes, list] = {}
            for replica in group.replicas:
                if replica._stopped:
                    continue
                snapshot = replica.app.snapshot()
                records = dict(decode_kv_records(snapshot))
                if records.get(fence_key) != marker:
                    continue  # has not executed this round's fence yet
                filtered = filter_kv_snapshot(snapshot, moving)
                by_digest.setdefault(manifest_digest(filtered), []).append(filtered)
            for candidates in by_digest.values():
                if len(candidates) >= quorum:
                    return candidates[0]
            if env.now >= deadline:
                raise MigrationError(
                    f"no f+1 matching snapshots from {src} after fence"
                )
            yield env.timeout(self.collect_retry)

    # -- destination counter re-certification ----------------------------------------

    def _certify_destination(self, dst: str, mid: str, digest: bytes) -> int:
        """Each live destination replica certifies the manifest at value 1.

        f+1 verifying certificates prove enough trusted subsystems in
        the destination group bound themselves to exactly this state;
        fewer means the group cannot currently form a commit quorum and
        the migration must not cut over.
        """
        group = self.cluster.group(dst)
        name = f"shard-migration/{mid}"
        certs = []
        for replica in group.replicas:
            if replica._stopped:
                continue
            replica.counters.create(name)
            certs.append(replica.counters.certify_at(name, 1, digest))
        verifier = group.replicas[0].counters
        valid = sum(1 for cert in certs if verifier.verify(cert))
        if valid < group.config.commit_quorum:
            raise MigrationError(
                f"only {valid} destination counter certificates, "
                f"need {group.config.commit_quorum}"
            )
        return valid
