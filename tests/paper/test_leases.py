"""Lease reads: the tracked voted-vs-leased latency comparison.

One fig8-style read-only cell (1 KB replies) on the LAN, run with the
fast-read probe path (``etroxy``) and with leases enabled (``lease``);
see ``docs/READS.md``, which also says why there is no WAN cell. The
assertions pin the acceptance properties of the lease work:

* serving under a lease removes the per-read f+1 probe round: read p50
  drops below the voted path's and throughput rises — the lease p50
  *is* the local-serve latency (decrypt, cache lookup, seal; no quorum
  round);
* the lease path genuinely served (grants installed, lease hits
  recorded) — the numbers are not the probe path wearing a new label.
"""

from typing import NamedTuple

from .tables import row


class Cell(NamedTuple):
    p50_ms: float
    p95_ms: float
    throughput: float
    lease_read_hits: float


def test_lease_read_latency():
    lan_voted = Cell(*row("leases", "lease-local  etroxy"))
    lan_lease = Cell(*row("leases", "lease-local  lease"))

    # The lease path really ran (a hit needs an installed grant).
    assert lan_lease.lease_read_hits > 0
    # ...and the voted reference never touched it.
    assert lan_voted.lease_read_hits == 0

    # Removing the probe round must show up directly — lower read p50
    # and higher read throughput than the voted path.
    assert lan_lease.p50_ms <= lan_voted.p50_ms, (
        f"lease p50 {lan_lease.p50_ms * 1e3:.1f} us above voted "
        f"{lan_voted.p50_ms * 1e3:.1f} us"
    )
    assert lan_lease.throughput > lan_voted.throughput
