"""Ablation D2 — why writes must invalidate *before* replying.

Break the invalidation (writes touch no cache keys) and replay a
write-then-read scenario: the fast-read quorum happily serves the stale
value, and the linearizability checker catches it. With invalidation
intact, the same scenario is clean — the mechanism is load-bearing,
not decorative.
"""

from repro.analysis.linearizability import OpRecord, check_linearizable
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.bench.report import save_and_print


def run_scenario(break_invalidation: bool):
    cluster = build_troxy(seed=17, app_factory=KvStore)
    if break_invalidation:
        for core in cluster.cores:
            core.keys_fn = lambda op: ()  # writes invalidate nothing
    client = cluster.new_client(contact_index=0)
    history: list[OpRecord] = []

    def record(kind, value, start):
        history.append(
            OpRecord(client.client_id, kind, "k", value, start, cluster.env.now)
        )

    def driver():
        # The epsilon gaps keep successive intervals disjoint: touching
        # intervals count as concurrent under real-time precedence.
        start = cluster.env.now
        yield from client.invoke(put("k", b"v1"))
        record("put", b"v1", start)
        yield cluster.env.timeout(1e-6)
        start = cluster.env.now
        outcome = yield from client.invoke(get("k"))
        record("get", outcome.result.content, start)
        yield cluster.env.timeout(1e-6)
        start = cluster.env.now
        yield from client.invoke(put("k", b"v2"))
        record("put", b"v2", start)
        yield cluster.env.timeout(1e-6)
        start = cluster.env.now
        outcome = yield from client.invoke(get("k"))
        record("get", outcome.result.content, start)

    cluster.env.process(driver())
    cluster.env.run(until=30.0)
    return history, cluster.cores[0].stats


def run_ablation():
    broken_history, broken_stats = run_scenario(break_invalidation=True)
    intact_history, intact_stats = run_scenario(break_invalidation=False)
    return broken_history, intact_history, broken_stats, intact_stats


def test_ablation_write_invalidation(run_once):
    broken_history, intact_history, broken_stats, intact_stats = run_once(run_ablation)

    broken_ok = check_linearizable(broken_history)
    intact_ok = check_linearizable(intact_history)
    lines = ["Ablation D2 — write invalidation removed", "=" * 42]
    lines.append(f"with invalidation   : final read = "
                 f"{intact_history[-1].value!r}, linearizable = {intact_ok}")
    lines.append(f"without invalidation: final read = "
                 f"{broken_history[-1].value!r}, linearizable = {broken_ok}")
    save_and_print("ablation_invalidation", "\n".join(lines))

    # Broken invalidation serves the pre-write value from the cache...
    assert broken_history[-1].value == b"v1"
    assert not broken_ok  # ...which the checker correctly rejects.
    assert broken_stats.fast_read_hits >= 1  # the stale hit really was a fast read

    # The real system returns the new value and stays linearizable.
    assert intact_history[-1].value == b"v2"
    assert intact_ok
