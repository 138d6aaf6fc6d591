"""Deterministic cross-ledger reconciliation and blame attribution.

The auditor never runs speculatively: the health plane invokes it only
after a detector fired (see :class:`.plane.AuditPlane`). It compares
the per-node ledgers pairwise and emits :class:`Verdict`s in four
proof classes:

* **equivocation** — two verified counter certificates bind the same
  (subsystem, counter, value) slot to different digests. The trusted
  subsystem makes this impossible for honest hardware, so the verdict
  pins the subsystem owner with cryptographic certainty.
* **tamper** — a delivered message's digest does not match any digest
  its sender's ledger certified for that peer. ``net.send`` records
  pre-wire content and ``net.deliver`` records arrivals, so the
  divergence pins the sender-side host (``HostTamper``) or its
  outbound link; either way the named replica's zone is the culprit.
* **omission** — sends attested by several senders never appear in the
  destination's ledger. If the suspect's ledger shows *any* activity
  inside the missing window the auditor hedges to ``link_omission``
  (blaming src->dst links, not the node): a partitioned-but-alive node
  keeps talking to its own side, while a crashed one goes silent.
* **contention** — with a detector firing, a client whose distinct
  write count dwarfs the workload median is flagged as an adversarial
  writer.

Everything iterates in sorted order over already-deterministic ledger
contents, so verdicts — and the signed bundles built from them — are
byte-stable for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...crypto.primitives import MacKey
from ...sgx.counters import _auth_input


@dataclass(frozen=True)
class Verdict:
    """One blame attribution, with the evidence that supports it."""

    kind: str  # "equivocation" | "tamper" | "omission" | "link_omission" | "contention"
    culprits: tuple[str, ...]
    t: float  # earliest supporting evidence, sim time
    detail: str
    proof: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "culprits": list(self.culprits),
            "t": self.t,
            "detail": self.detail,
            "proof": self.proof,
        }


class Auditor:
    """Reconcile ledgers across nodes and localize misbehaviour."""

    def __init__(
        self,
        group_key: Optional[MacKey] = None,
        grace: float = 0.25,
        min_omissions: int = 3,
        min_senders: int = 2,
        contention_floor: int = 16,
        contention_ratio: float = 4.0,
    ):
        self.group_key = group_key
        #: sends younger than ``grace`` before the audit instant are
        #: treated as still in flight, never as omissions.
        self.grace = grace
        self.min_omissions = min_omissions
        self.min_senders = min_senders
        self.contention_floor = contention_floor
        self.contention_ratio = contention_ratio

    def reconcile(
        self, ledgers: dict, end_t: float, replica_ids=frozenset(),
    ) -> list[Verdict]:
        """Cross-check every ledger pair; returns sorted verdicts."""
        verdicts: list[Verdict] = []
        verdicts += self._equivocation(ledgers)
        verdicts += self._tamper(ledgers)
        verdicts += self._omission(ledgers, end_t, frozenset(replica_ids))
        verdicts += self._contention(ledgers, frozenset(replica_ids))
        return sorted(verdicts, key=lambda v: (v.kind, v.culprits, v.t))

    # -- equivocation ---------------------------------------------------------

    def _verified(self, cert: tuple) -> bool:
        if self.group_key is None:
            return True
        sub, name, value, digest, tag = cert
        return self.group_key.verify(_auth_input(sub, name, value, digest), tag)

    def _equivocation(self, ledgers: dict) -> list[Verdict]:
        slots: dict[tuple, dict[bytes, float]] = {}
        for node in sorted(ledgers):
            for e in ledgers[node].entries:
                if e.cert is None or not self._verified(e.cert):
                    continue
                sub, name, value, digest, _tag = e.cert
                seen = slots.setdefault((sub, name, value), {})
                if digest not in seen:
                    seen[digest] = e.t
        verdicts = []
        for (sub, name, value), digests in sorted(slots.items()):
            if len(digests) < 2:
                continue
            verdicts.append(Verdict(
                kind="equivocation",
                culprits=(sub,),
                t=min(digests.values()),
                detail=(
                    f"{sub} certified {len(digests)} different digests for "
                    f"counter {name}={value}"
                ),
                proof={
                    "counter": name,
                    "value": value,
                    "digests": sorted(d.hex() for d in digests),
                },
            ))
        return verdicts

    # -- tamper ---------------------------------------------------------------

    def _tamper(self, ledgers: dict) -> list[Verdict]:
        sent_digests: dict[str, set] = {}
        for node, ledger in ledgers.items():
            sent_digests[node] = {
                e.digest for e in ledger.entries if e.direction == "send"
            }
        by_culprit: dict[str, list] = {}
        for node in sorted(ledgers):
            for e in ledgers[node].entries:
                if e.direction != "recv":
                    continue
                certified = sent_digests.get(e.peer)
                if certified is None or e.digest in certified:
                    continue
                by_culprit.setdefault(e.peer, []).append((e.t, node, e))
        verdicts = []
        for culprit in sorted(by_culprit):
            mismatches = by_culprit[culprit]
            verdicts.append(Verdict(
                kind="tamper",
                culprits=(culprit,),
                t=min(t for t, _, _ in mismatches),
                detail=(
                    f"{len(mismatches)} delivered message(s) diverge from "
                    f"{culprit}'s certified send ledger"
                ),
                proof={
                    "mismatches": [
                        {
                            "t": t,
                            "observer": observer,
                            "kind": e.kind,
                            "ident": None if e.ident is None else list(e.ident),
                            "delivered": e.digest.hex(),
                        }
                        for t, observer, e in mismatches[:8]
                    ],
                    "total": len(mismatches),
                },
            ))
        return verdicts

    # -- omission --------------------------------------------------------------

    def _omission(self, ledgers: dict, end_t: float, replica_ids) -> list[Verdict]:
        recv_index: dict[tuple, tuple[set, set]] = {}
        for node, ledger in ledgers.items():
            for e in ledger.entries:
                if e.direction != "recv":
                    continue
                digests, idents = recv_index.setdefault((node, e.peer), (set(), set()))
                digests.add(e.digest)
                if e.ident is not None:
                    idents.add(e.ident)
        horizon = end_t - self.grace
        missing: list[tuple[str, str, object]] = []
        for node in sorted(ledgers):
            for e in ledgers[node].entries:
                if e.direction != "send" or e.t > horizon:
                    continue
                digests, idents = recv_index.get((e.peer, node), (frozenset(), frozenset()))
                if e.digest in digests:
                    continue
                # Delivered-but-different is tamper evidence, not omission.
                if e.ident is not None and e.ident in idents:
                    continue
                missing.append((node, e.peer, e))

        verdicts: list[Verdict] = []
        blamed: set[str] = set()
        for dst in sorted({dst for _, dst, _ in missing}):
            items = [(src, e) for src, d, e in missing if d == dst]
            senders = sorted({src for src, _ in items})
            if (
                dst not in replica_ids
                or len(items) < self.min_omissions
                or len(senders) < self.min_senders
            ):
                continue
            lo = min(e.t for _, e in items)
            hi = max(e.t for _, e in items)
            suspect = ledgers.get(dst)
            alive = suspect is not None and any(
                lo <= e.t <= hi for e in suspect.entries
            )
            if alive:
                # Partition-aware hedging: the suspect kept sending or
                # receiving inside the missing window, so the silence is
                # a link property — fall through to link_omission.
                continue
            blamed.add(dst)
            verdicts.append(Verdict(
                kind="omission",
                culprits=(dst,),
                t=lo,
                detail=(
                    f"{len(items)} attested send(s) from {len(senders)} node(s) "
                    f"never certified as received by {dst}, which was silent "
                    "for the whole window"
                ),
                proof={
                    "unreceived": len(items),
                    "senders": senders,
                    "window": [lo, hi],
                },
            ))
        leftovers = [(src, dst, e) for src, dst, e in missing if dst not in blamed]
        if leftovers:
            links: dict[str, int] = {}
            for src, dst, _ in leftovers:
                link = f"{src}->{dst}"
                links[link] = links.get(link, 0) + 1
            verdicts.append(Verdict(
                kind="link_omission",
                culprits=tuple(sorted(links)),
                t=min(e.t for _, _, e in leftovers),
                detail=(
                    f"{len(leftovers)} attested send(s) vanished on "
                    f"{len(links)} link(s) whose endpoints stayed active "
                    "(network fault, not node fault)"
                ),
                proof={"links": {k: links[k] for k in sorted(links)}},
            ))
        return verdicts

    # -- write contention -------------------------------------------------------

    def _contention(self, ledgers: dict, replica_ids) -> list[Verdict]:
        writes: dict[str, set] = {}
        first_seen: dict[str, float] = {}
        for node in sorted(ledgers):
            if node not in replica_ids:
                continue
            for e in ledgers[node].entries:
                if (
                    e.direction != "recv"
                    or e.ident is None
                    or e.ident[0] != "request"
                    or e.ident[3] != "w"
                ):
                    continue
                client = e.ident[1]
                writes.setdefault(client, set()).add(e.ident[2])
                if client not in first_seen:
                    first_seen[client] = e.t
        if not writes:
            return []
        counts = {client: len(rids) for client, rids in writes.items()}
        ordered = sorted(counts.values())
        # Lower median: an adversarial heavy writer must not be able to
        # drag the "normal" baseline up by being counted in it.
        median = ordered[(len(ordered) - 1) // 2]
        flagged = sorted(
            client for client, n in counts.items()
            if n >= self.contention_floor and n >= self.contention_ratio * max(median, 1)
        )
        if not flagged:
            return []
        return [Verdict(
            kind="contention",
            culprits=tuple(flagged),
            t=min(first_seen[c] for c in flagged),
            detail=(
                "adversarial write pressure: "
                + ", ".join(f"{c} issued {counts[c]} distinct writes" for c in flagged)
                + f" (workload median {median})"
            ),
            proof={"writes": {c: counts[c] for c in sorted(counts)}, "median": median},
        )]
