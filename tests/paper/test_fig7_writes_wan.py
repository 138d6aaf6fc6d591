"""Fig. 7: totally ordered writes with 100 +/- 20 ms network delay.

Paper shape: "the server-side reply voter brings a huge advantage to
Troxy ... This advantage applies to different request payload sizes,
and leads to up to 60% performance gain." The gain comes from the
client exchanging a single request/reply with one Troxy instead of
running the full client-side library (request distribution to all
replicas, f+1 delayed replies) over the constrained WAN access link.
"""

from .tables import grid, ratio


def test_fig7_ordered_writes_wan():
    points = grid("fig7")

    # Troxy at least matches the baseline at every size...
    for size in ("256", "1024", "4096", "8192"):
        assert ratio(points, "etroxy", "bl", size) >= 0.95, (
            f"etroxy/bl at {size} B = {ratio(points, 'etroxy', 'bl', size):.2f}"
        )
    # ...and wins big for large requests (paper: up to ~60-70 %).
    big_gain = ratio(points, "etroxy", "bl", "8192")
    assert big_gain >= 1.3, f"etroxy/bl at 8 KB = {big_gain:.2f}"
    # The advantage grows with the payload size.
    assert big_gain > ratio(points, "etroxy", "bl", "256")
