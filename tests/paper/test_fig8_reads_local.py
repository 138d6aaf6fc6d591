"""Fig. 8: read-only requests, local network.

Paper shape: for small (256 B) replies the fast-read protocol's enclave
transitions and remote-cache round trip cost more than they save — the
overhead is large (paper: 115 %). As replies grow, the baseline pays
Java TLS on 2f+1 full replies while Troxy ships one C/C++-sealed reply
plus hash-only cache checks: etroxy overtakes at ~4 KB and wins ~30 %
at 8 KB.
"""

from .tables import grid, ratio


def test_fig8_reads_local():
    points = grid("fig8")

    # 256 B: the baseline read optimization clearly wins (paper: etroxy
    # overhead as high as 115 %, i.e. et/bl around 0.47).
    small = ratio(points, "etroxy", "bl", "256")
    assert small <= 0.7, f"etroxy/bl at 256 B = {small:.2f}"

    # The ratio improves monotonically with the reply size...
    ratios = [ratio(points, "etroxy", "bl", size) for size in points]  # 256 B .. 8 KB
    assert all(b >= a for a, b in zip(ratios, ratios[1:])), ratios

    # ...crossing over by 4-8 KB (paper: overtakes at 4 KB, +30 % at 8 KB).
    assert ratios[-1] >= 1.1, f"etroxy/bl at 8 KB = {ratios[-1]:.2f}"
    assert ratios[-2] >= 0.9, f"etroxy/bl at 4 KB = {ratios[-2]:.2f}"
