"""Agreement batching: the tracked off / adaptive table.

One fig6-style local-writes cell at a fixed client count, batching off
and on (see ``docs/BATCHING.md``). The assertions pin the acceptance
properties of the batching work: the adaptive policy beats the
pre-batching path outright by pipelining deeper than lock-step, and
leaves the fig8-style fast-read p50 untouched (fast reads never enter
the ordering pipeline, so batching must not tax them).
"""

from .tables import grid, row


def test_batching_ladder_and_read_guard():
    writes = grid("batching")

    # Batched (adaptive) beats the unbatched path.
    assert writes["adaptive"]["op/s"] >= writes["off"]["op/s"], (
        f"adaptive {writes['adaptive']['op/s']:.0f} op/s < "
        f"unbatched {writes['off']['op/s']:.0f} op/s"
    )

    # The adaptive policy keeps several batches in flight.
    assert writes["adaptive"]["depth"] > 2

    # Fast-read guard: batching must not move the read-path p50 (reads
    # are served by the Troxy cache, not by ordered agreement).
    p50_off, _ = row("batching", "b=     off: p50")
    p50_adaptive, _ = row("batching", "b=adaptive: p50")
    assert abs(p50_adaptive - p50_off) <= 0.05 * p50_off, (
        f"fast-read p50 moved: off {p50_off * 1e3:.1f} us vs "
        f"adaptive {p50_adaptive * 1e3:.1f} us"
    )
