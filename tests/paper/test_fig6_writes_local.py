"""Fig. 6: totally ordered write requests, local network.

Paper shape: with 256 B requests etroxy loses ~43 % against the
baseline (about half of it attributable to SGX — ctroxy, without the
enclave, loses ~21 %); the gap closes with the payload size and etroxy
reaches the baseline at 8 KB (large-payload authentication is faster in
C/C++ than in Java, and the NICs saturate).
"""

from .tables import grid, ratio


def test_fig6_ordered_writes_local():
    points = grid("fig6")

    # 256 B: etroxy well below the baseline (paper: ~43 % loss)...
    et_small = ratio(points, "etroxy", "bl", "256")
    assert 0.40 <= et_small <= 0.75, f"etroxy/bl at 256 B = {et_small:.2f}"
    # ...with ctroxy in between (paper: about half the loss is SGX).
    ct_small = ratio(points, "ctroxy", "bl", "256")
    assert et_small < ct_small < 1.0, f"ctroxy/bl at 256 B = {ct_small:.2f}"

    # The gap closes monotonically-ish and reaches ~parity at 8 KB.
    et_big = ratio(points, "etroxy", "bl", "8192")
    assert et_big >= 0.9, f"etroxy/bl at 8 KB = {et_big:.2f}"
    assert et_big > et_small

    # ctroxy also converges to the baseline at 8 KB.
    ct_big = ratio(points, "ctroxy", "bl", "8192")
    assert ct_big >= 0.9, f"ctroxy/bl at 8 KB = {ct_big:.2f}"

    # Absolute throughput declines with request size for every system.
    for system in ("bl", "ctroxy", "etroxy"):
        series = [cells[system] for cells in points.values()]
        assert series[0] > series[-1]
