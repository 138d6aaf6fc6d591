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

from repro.bench.experiments import lease_reads


def _by_cell(points):
    return {(p.figure, p.system): p for p in points}


def test_lease_read_latency(run_once):
    points = run_once(lease_reads)
    cells = _by_cell(points)
    lan_voted = cells[("lease-local", "etroxy")]
    lan_lease = cells[("lease-local", "lease")]

    # The lease path really ran.
    assert lan_lease.extra["lease_read_hits"] > 0
    assert lan_lease.extra["grants_installed"] > 0
    # ...and the voted reference never touched it.
    assert lan_voted.extra["lease_read_hits"] == 0

    # Removing the probe round must show up directly — lower read p50
    # and higher read throughput than the voted path.
    assert lan_lease.summary.p50 <= lan_voted.summary.p50, (
        f"lease p50 {lan_lease.summary.p50 * 1e6:.1f} us above voted "
        f"{lan_voted.summary.p50 * 1e6:.1f} us"
    )
    assert lan_lease.throughput > lan_voted.throughput
