"""Ablation D1 — relocating the voter to the server side.

Measures what the client itself pays in each architecture: bytes on the
client's access link and TLS operations on the client's CPU, per
completed request. This is the paper's transparency dividend — the
reason low-bandwidth/mobile clients benefit (Section II-B) — made
directly visible.
"""

from .tables import row


def test_ablation_server_side_voter():
    # (bytes downloaded, bytes uploaded, mean latency) per completed request
    bl_rx, bl_tx, bl_latency = row("ablation_voter", "bl")
    troxy_rx, troxy_tx, troxy_latency = row("ablation_voter", "troxy")

    # The baseline client downloads ~2f+1 replies; the Troxy client one.
    assert bl_rx > 2.0 * troxy_rx, (bl_rx, troxy_rx)
    # And uploads the request to every replica instead of once.
    assert bl_tx > 2.0 * troxy_tx, (bl_tx, troxy_tx)
    # Waiting for the f+1-th delayed reply costs latency too.
    assert bl_latency > troxy_latency
