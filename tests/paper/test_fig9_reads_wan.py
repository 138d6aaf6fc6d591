"""Fig. 9: read-only requests with 100 +/- 20 ms network delay.

Paper shape: the delay softens Troxy's small-reply penalty (their
256 B point degrades only 33 % vs 115 % on the LAN) and above 1 KB
etroxy outperforms the baseline (at least +15 %, headline +130 %): the
baseline downloads 2f+1 full replies over the delayed, constrained
client link while Troxy downloads one.
"""

from .tables import grid, ratio


def test_fig9_reads_wan():
    points = grid("fig9")

    ratios = {
        size: ratio(points, "etroxy", "bl", str(size)) for size in (256, 1024, 4096, 8192)
    }
    # The WAN softens the small-reply penalty compared to Fig. 8's LAN
    # (paper: -115 % becomes -33 %); in our model the deficit not only
    # shrinks but flips to a gain (see EXPERIMENTS.md, deviation 3) — at
    # minimum it must have shrunk to a mild loss.
    assert ratios[256] >= 0.6, f"etroxy/bl at 256 B = {ratios[256]:.2f}"

    # Above 1 KB, Troxy wins (paper: >= +15 %)...
    for size in (1024, 4096, 8192):
        assert ratios[size] >= 1.15, f"etroxy/bl at {size} B = {ratios[size]:.2f}"

    # ...with a large-reply headline gain in the +130 % ballpark.
    assert ratios[8192] >= 1.6, f"etroxy/bl at 8 KB = {ratios[8192]:.2f}"
    assert ratios[8192] > ratios[256]
