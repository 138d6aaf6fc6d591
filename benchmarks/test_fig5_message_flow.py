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

from repro.apps.kvstore import KvStore, put
from repro.deploy import build_baseline, build_troxy
from repro.bench.report import save_and_print
from repro.obs.audit import LedgerProbes


def single_request_latency(cluster, client, rounds: int = 12) -> tuple[float, int]:
    """Mean unloaded latency over a few sequential writes (the LAN has
    jitter, so a single sample cannot order the deployments)."""
    outcomes = []

    def driver():
        for i in range(rounds):
            outcome = yield from client.invoke(put(f"k{i}", b"v"))
            outcomes.append(outcome)

    messages_before = cluster.net.messages_sent
    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + 30.0)
    assert len(outcomes) == rounds, "requests did not complete"
    mean_latency = sum(o.latency for o in outcomes) / rounds
    messages = (cluster.net.messages_sent - messages_before) // rounds
    return mean_latency, messages


def run_fig5():
    rows = []

    cluster = build_baseline(seed=1, app_factory=KvStore, trace=True)
    client = cluster.new_client(read_optimization=False)
    latency, messages = single_request_latency(cluster, client)
    rows.append(("hybster (client at leader)", latency, messages))

    cluster = build_troxy(seed=1, app_factory=KvStore, trace=True)
    client = cluster.new_client(contact_index=0)  # replica-0 leads view 0
    latency, messages = single_request_latency(cluster, client)
    rows.append(("troxy at leader (+1 phase)", latency, messages))
    leader_trace = cluster.tracer.filter(category="proto.send")

    cluster = build_troxy(seed=1, app_factory=KvStore, trace=True)
    client = cluster.new_client(contact_index=1)
    latency, messages = single_request_latency(cluster, client)
    rows.append(("troxy at follower (+2 phases)", latency, messages))

    # Same troxy-at-leader cell with the accountability ledgers on
    # (repro.obs.audit probes, checkpoint interval 64): the only
    # simulated-time cost is the periodic certify_ledger ecall.
    cluster = build_troxy(seed=1, app_factory=KvStore, trace=True)
    probes = LedgerProbes(checkpoint_interval=64).attach(cluster)
    client = cluster.new_client(contact_index=0)
    probed_latency, _messages = single_request_latency(cluster, client)
    audit = (probed_latency, sum(len(l.entries) for l in probes.ledgers.values()),
             sum(l.checkpoints_requested for l in probes.ledgers.values()))

    return rows, leader_trace, audit


def test_fig5_message_flow(run_once):
    rows, leader_trace, audit = run_once(run_fig5)
    lines = ["Fig. 5 — single ordered write, unloaded LAN", "=" * 44]
    for name, latency, messages in rows:
        lines.append(f"{name:34s} latency {latency * 1e6:9.1f} us   protocol msgs {messages:3d}")
    lines.append("")
    lines.append("leader-side protocol sends (Troxy at leader):")
    for record in leader_trace[:12]:
        lines.append("  " + str(record))

    troxy_latency = rows[1][1]
    probed_latency, ledger_entries, checkpoints = audit
    overhead = (probed_latency - troxy_latency) / troxy_latency
    lines.append("")
    lines.append("audit-ledger probe overhead (troxy at leader, checkpoint interval 64):")
    lines.append(
        f"  ledgers off {troxy_latency * 1e6:9.1f} us   "
        f"ledgers on {probed_latency * 1e6:9.1f} us   "
        f"delta {overhead * 100:+.2f}%"
    )
    lines.append(
        f"  {ledger_entries} ledger entries, {checkpoints} certify_ledger "
        "ecall(s) across the run"
    )
    save_and_print("fig5", "\n".join(lines))

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
