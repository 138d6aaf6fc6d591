"""Agreement batching: the tracked before/after throughput ladder.

One fig6-style local-writes cell at a fixed client count, swept over
batch settings (see ``docs/BATCHING.md``). The assertions pin the two
acceptance properties of the batching work:

* with the agreement pipeline held fixed, growing the batch size
  multiplies write throughput — at least 2x from batch size 1 to 16;
* the tuned adaptive setting beats the pre-batching path outright, and
  leaves the fig8-style fast-read p50 untouched (fast reads never
  enter the ordering pipeline, so batching must not tax them).
"""

from .tables import grid, row


def test_batching_ladder_and_read_guard():
    writes = grid("batching")

    # Acceptance: >= 2x write throughput, batch 16 vs batch 1, on the
    # same two-deep agreement pipeline (BatchConfig.sized defaults).
    speedup = writes["16"]["op/s"] / writes["1"]["op/s"]
    assert speedup >= 2.0, f"batch 16 vs 1 speedup {speedup:.2f}x < 2x"

    # The ladder is monotone: more requests per certified counter value
    # never hurts while the pipeline is the bottleneck.
    assert writes["4"]["op/s"] > writes["1"]["op/s"]

    # CI smoke: batched (adaptive default) beats the unbatched path.
    assert writes["adaptive"]["op/s"] >= writes["off"]["op/s"], (
        f"adaptive {writes['adaptive']['op/s']:.0f} op/s < "
        f"unbatched {writes['off']['op/s']:.0f} op/s"
    )

    # Batches genuinely form under the fixed-size settings...
    assert writes["16"]["avg batch"] > writes["4"]["avg batch"] > 1.5
    # ...and never exceed the configured cap.
    assert writes["16"]["avg batch"] <= 16.0
    # The adaptive setting actually pipelines deeper than the sized ones.
    assert writes["adaptive"]["depth"] > 2

    # Fast-read guard: batching must not move the read-path p50 (reads
    # are served by the Troxy cache, not by ordered agreement).
    p50_off, _ = row("batching", "b=     off: p50")
    p50_adaptive, _ = row("batching", "b=adaptive: p50")
    assert abs(p50_adaptive - p50_off) <= 0.05 * p50_off, (
        f"fast-read p50 moved: off {p50_off * 1e3:.1f} us vs "
        f"adaptive {p50_adaptive * 1e3:.1f} us"
    )
