"""Invariant checks evaluated after every chaos scenario.

Three properties, mapped to the paper's claims:

* **linearizability** — the Troxy fast-read cache must preserve
  linearizability under every fault (Section IV-A); delegates to
  :mod:`repro.analysis.linearizability`. Written values are unique, so
  a stale read from the cache is a linearizability violation and the
  detail names the two values whose zones conflict.
* **liveness** — every client driver finishes its workload before the
  scenario horizon. Legacy clients retry forever, so an unfinished
  driver means the service stopped making progress.
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

from ..analysis.linearizability import OpRecord, find_violation


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
    violation = find_violation(list(history))
    if violation is not None:
        return InvariantResult("linearizability", False, violation)
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
