"""Invariant checks evaluated after every chaos scenario.

Four properties, mapped to the paper's claims:

* **linearizability** — the Troxy fast-read cache must preserve
  linearizability under every fault (Section IV-A); delegates to
  :mod:`repro.analysis.linearizability`.
* **liveness** — every client driver finishes its workload before the
  scenario horizon. Legacy clients retry forever, so an unfinished
  driver means the service stopped making progress.
* **cache freshness** — a targeted staleness check: a read must never
  observe a value that was overwritten by a put which completed before
  the read began. Weaker than full linearizability but linear-time and
  with a far sharper diagnostic when the fast-read path serves stale
  cache entries (Section IV-A write invalidation).
* **counter monotonicity** — across enclave reboots, sealed trusted
  counters must never move backwards (rollback protection, Section
  IV-B).

Each check returns an :class:`InvariantResult`; ``ok`` plus a detail
string when violated. Checks are pure functions of recorded data so the
known-bad-history unit tests can drive them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.linearizability import OpRecord, check_key_history, split_by_key


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


# -- linearizability ---------------------------------------------------------


def check_linearizability(history: Sequence[OpRecord]) -> InvariantResult:
    for key, records in sorted(split_by_key(list(history)).items()):
        if not check_key_history(records):
            ops = "; ".join(
                f"[{r.start:.4f},{r.end:.4f}] {r.client} {r.kind} -> {r.value!r}"
                for r in sorted(records, key=lambda r: (r.start, r.end))
            )
            return InvariantResult(
                "linearizability", False,
                f"key {key!r} has no legal witness ordering: {ops}",
            )
    return InvariantResult("linearizability", True)


# -- liveness ----------------------------------------------------------------


def check_liveness(unfinished: Sequence[str]) -> InvariantResult:
    """``unfinished`` names the client drivers still running at horizon."""
    if unfinished:
        return InvariantResult(
            "liveness", False,
            "drivers still running at horizon: " + ", ".join(sorted(unfinished)),
        )
    return InvariantResult("liveness", True)


# -- cache freshness ---------------------------------------------------------


def find_stale_read(history: Sequence[OpRecord]) -> Optional[str]:
    """First read that observed a provably overwritten value.

    A get G is stale iff some put W' on the same key completed before G
    started (``W'.end < G.start``) while the put that produced G's
    observed value had already completed before W' began
    (``W_v.end < W'.start``). A get observing ``None`` (no value) treats
    ``W_v.end`` as minus infinity. Sound provided written values are
    unique per key, which the campaign workload guarantees.
    """
    for key, records in sorted(split_by_key(list(history)).items()):
        puts = [r for r in records if r.kind == "put"]
        if not puts:
            continue
        writes_by_value = {r.value: r for r in puts}
        for get in records:
            if get.kind != "get":
                continue
            if get.value is None:
                observed_end = float("-inf")
            else:
                write = writes_by_value.get(get.value)
                if write is None:
                    continue  # alien value: linearizability will flag it
                observed_end = write.end
            for newer in puts:
                if newer.end < get.start and observed_end < newer.start:
                    return (
                        f"{get.client} read {get.value!r} from key {key!r} at "
                        f"[{get.start:.4f},{get.end:.4f}] but {newer.client} had "
                        f"already overwritten it with {newer.value!r} by "
                        f"t={newer.end:.4f}"
                    )
    return None


def check_cache_freshness(history: Sequence[OpRecord]) -> InvariantResult:
    stale = find_stale_read(history)
    if stale is not None:
        return InvariantResult("cache_freshness", False, stale)
    return InvariantResult("cache_freshness", True)


# -- counter monotonicity ----------------------------------------------------


def find_counter_regression(
    chains: dict[str, list[dict[str, int]]],
) -> Optional[str]:
    """First regression in per-replica counter snapshot chains.

    ``chains[replica]`` is a time-ordered list of counter snapshots
    (taken before each enclave reboot, plus one at scenario end). Sealed
    counters must survive reboots: a later snapshot may never drop or
    decrease a counter present in an earlier one.
    """
    for replica, snapshots in sorted(chains.items()):
        for step, (earlier, later) in enumerate(zip(snapshots, snapshots[1:])):
            for name, value in sorted(earlier.items()):
                after = later.get(name)
                if after is None:
                    return (
                        f"{replica}: counter {name!r} vanished between "
                        f"snapshots {step} and {step + 1}"
                    )
                if after < value:
                    return (
                        f"{replica}: counter {name!r} rolled back "
                        f"{value} -> {after} between snapshots {step} and {step + 1}"
                    )
    return None


def check_counter_monotonicity(
    chains: dict[str, list[dict[str, int]]],
) -> InvariantResult:
    regression = find_counter_regression(chains)
    if regression is not None:
        return InvariantResult("counter_monotonicity", False, regression)
    return InvariantResult("counter_monotonicity", True)
