"""Fig. 5: message flow of Hybster vs Troxy-backed Hybster.

The paper's Fig. 5 is a message-flow diagram: (a) original Hybster,
(b) Troxy with the client connected to the leader's replica — one extra
phase for server-side reply collection — and (c) Troxy at a follower —
a further phase to forward the request to the leader.

We regenerate it as data: drive one isolated write through each
deployment, print the protocol trace, and assert the phase ordering
via the unloaded request latency (more sequential phases = higher
latency on an otherwise idle LAN).
"""

from .tables import lines, numbers, row

DEPLOYMENTS = (
    "hybster (client at leader)",
    "troxy at leader (+1 phase)",
    "troxy at follower (+2 phases)",
)


def test_fig5_message_flow():
    # (name, latency in us, protocol messages per write)
    rows = [(name, *row("fig5", name)) for name in DEPLOYMENTS]

    troxy_latency = rows[1][1]
    _ledgers_off, probed_latency, _delta = row("fig5", "ledgers off")
    ledger_entries, checkpoints = numbers(lines("fig5")[-1])
    overhead = (probed_latency - troxy_latency) / troxy_latency

    # The accountability ledgers ride the existing send/delivery paths;
    # their only simulated-time cost is the periodic checkpoint ecall,
    # which must stay inside the 3% latency budget.
    assert ledger_entries > 0
    assert abs(overhead) < 0.03

    bl, troxy_leader, troxy_follower = (latency for _n, latency, _m in rows)
    # (b) adds the server-side reply collection phase over (a).
    assert troxy_leader > bl
    # (c) adds the forward-to-leader phase over (b).
    assert troxy_follower > troxy_leader
    # But each extra phase is a LAN hop: well under 2x per step.
    assert troxy_follower < 3 * bl

    # The client exchanged exactly one request and one reply in Troxy
    # mode regardless of contact point; extra messages are server-side.
    _, _, bl_msgs = rows[0]
    for _name, _latency, msgs in rows[1:]:
        assert msgs >= bl_msgs  # relocation adds server-side messages
