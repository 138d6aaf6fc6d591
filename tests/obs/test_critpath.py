"""Critical-path attribution: unit sweep semantics + live-run acceptance.

Unit tests drive :func:`attribute_trace` over handcrafted span trees
(priority nesting, gap-as-wait, trailing reply delivery); end-to-end
tests pin the ISSUE acceptance criteria on real instrumented runs:
every request's attributed segments sum to >= 95 % of its measured
end-to-end latency, the bottleneck report is byte-identical across
same-seed runs, and the batching / sharding probe phases show up where
the workload exercises them.
"""

import json

import pytest

from repro.analysis.metrics import percentile
from repro.obs.critpath import (
    analyze,
    attribute_trace,
    highlighted_chrome_trace,
    render_report,
)
from repro.obs.__main__ import main as obs_main, run_workload
from repro.obs.spans import SpanRecorder


def _closed(rec, name, start, end, trace="c1#1", node="replica-0", **kw):
    span = rec.begin(name, start, trace_id=trace, node=node, **kw)
    rec.end(span, end)
    return span


# -- unit: interval sweep ----------------------------------------------------


def test_nested_spans_attributed_to_innermost_phase():
    rec = SpanRecorder()
    root = _closed(rec, "client.invoke", 0.0, 1.0, parent=None)
    _closed(rec, "hybster.order", 0.2, 0.8, parent=root)
    # Certification nested inside ordering owns its interval (priority).
    _closed(rec, "enclave.ecall:certify_order", 0.4, 0.5, parent=root)
    attr = attribute_trace(rec.spans, "c1#1")
    assert attr.coverage == pytest.approx(1.0)
    assert attr.slices[("ordering", "service")] == pytest.approx(0.5)
    assert attr.slices[("certification", "service")] == pytest.approx(0.1)
    # Gaps: [0,0.2) waits for ordering, [0.8,1.0) is reply delivery.
    assert attr.slices[("ordering", "wait")] == pytest.approx(0.2)
    assert attr.slices[("reply_delivery", "wait")] == pytest.approx(0.2)


def test_gap_wait_goes_to_the_next_starting_phase():
    rec = SpanRecorder()
    root = _closed(rec, "client.invoke", 0.0, 1.0, parent=None)
    _closed(rec, "troxy.host", 0.0, 0.3, parent=root)
    _closed(rec, "troxy.vote", 0.6, 0.9, parent=root)
    attr = attribute_trace(rec.spans, "c1#1")
    # [0.3,0.6) is the fan-in before the vote: voting wait.
    assert attr.slices[("voting", "wait")] == pytest.approx(0.3)
    assert attr.slices[("troxy_accept", "service")] == pytest.approx(0.3)
    assert attr.slices[("voting", "service")] == pytest.approx(0.3)
    assert attr.slices[("reply_delivery", "wait")] == pytest.approx(0.1)


def test_queue_and_forward_spans_map_to_wait_phases():
    rec = SpanRecorder()
    root = _closed(rec, "client.invoke", 0.0, 1.0, parent=None)
    _closed(rec, "shard.forward", 0.0, 0.2, parent=root)
    _closed(rec, "hybster.queue", 0.2, 0.6, parent=root)
    _closed(rec, "hybster.order", 0.6, 1.0, parent=root)
    attr = attribute_trace(rec.spans, "c1#1")
    assert attr.slices[("forward_hop", "wait")] == pytest.approx(0.2)
    assert attr.slices[("batch_queue", "wait")] == pytest.approx(0.4)
    assert attr.forwarded


def test_critical_span_ids_are_the_interval_owners():
    rec = SpanRecorder()
    root = _closed(rec, "client.invoke", 0.0, 1.0, parent=None)
    order = _closed(rec, "hybster.order", 0.0, 1.0, parent=root)
    # Fully shadowed by the higher-priority execute span: not critical.
    execute = _closed(rec, "hybster.execute", 0.0, 1.0, parent=root)
    attr = attribute_trace(rec.spans, "c1#1")
    assert execute.span_id in attr.critical_span_ids
    assert order.span_id not in attr.critical_span_ids


def test_unfinished_or_missing_roots_are_skipped():
    rec = SpanRecorder()
    rec.begin("client.invoke", 0.0, trace_id="c1#1", node="n", parent=None)
    rec.finish(1.0)  # root closed as unfinished
    assert attribute_trace(rec.spans, "c1#1") is None
    assert attribute_trace([], "c9#9") is None


def test_profile_percentiles_are_exact_over_the_requests():
    """p50 / p99 are ``percentile`` over every request's seconds, not an
    estimate: 65 distinct latencies, where a digest's midpoint
    interpolation lands elsewhere."""
    rec = SpanRecorder()
    for i in range(65):
        start, e2e = float(i), 0.010 + 0.001 * i * i / 64
        root = _closed(rec, "client.invoke", start, start + e2e,
                       trace=f"c1#{i}", parent=None)
        _closed(rec, "hybster.execute", start, start + e2e / 2,
                trace=f"c1#{i}", parent=root)
    analysis = analyze(rec.spans)
    summary = analysis.as_dict()
    e2e = sorted(r.e2e for r in analysis.requests)
    assert len(e2e) == 65
    assert summary["e2e_p99_ms"] == percentile(e2e, 0.99) * 1e3
    assert summary["e2e_p50_ms"] == percentile(e2e, 0.5) * 1e3
    execute = sorted(r.slices[("execute", "service")] for r in analysis.requests)
    assert analysis.seconds(("execute", "service")) == execute
    row = summary["phases"]["execute/service"]
    assert row["p99_ms"] == percentile(execute, 0.99) * 1e3
    assert row["mean_ms"] == pytest.approx(sum(execute) / 65 * 1e3)


# -- end-to-end: instrumented runs ------------------------------------------


@pytest.fixture(scope="module")
def fig5_run():
    plane, _ = run_workload(
        seed=7, n_clients=2, warmup=0.02, duration=0.06, write_ratio=1.0
    )
    return plane, analyze(plane.spans)


def test_every_request_covered_at_least_95_percent(fig5_run):
    _, analysis = fig5_run
    assert analysis.requests, "nothing attributed"
    # The sweep partitions [T0,T1] exactly, so this holds with margin.
    assert analysis.min_coverage() >= 0.95
    for request in analysis.requests:
        assert request.attributed == pytest.approx(request.e2e, rel=1e-9)


def test_report_is_deterministic_across_same_seed_runs():
    reports = []
    for _ in range(2):
        plane, _ = run_workload(seed=11, n_clients=2, warmup=0.01,
                                duration=0.03)
        reports.append(render_report(analyze(plane.spans), "det"))
    assert reports[0] == reports[1]
    assert "accounted: 100.0%" in reports[0]


def test_batching_run_shows_queue_phase():
    plane, _ = run_workload(
        seed=5, n_clients=8, warmup=0.02, duration=0.06,
        write_ratio=1.0, batching="adaptive",
    )
    analysis = analyze(plane.spans)
    assert ("batch_queue", "wait") in analysis.totals
    assert analysis.seconds(("batch_queue", "wait"))


def test_sharded_run_shows_forward_phase():
    from repro.bench.critpath import attributed_sharded_run

    analysis, _, _, _ = attributed_sharded_run(
        shards=2, n_clients=6, warmup=0.02, duration=0.06
    )
    assert ("forward_hop", "wait") in analysis.totals
    forwarded = [r for r in analysis.requests if r.forwarded]
    assert forwarded, "no request took the cross-group hop"
    assert analysis.min_coverage() >= 0.95


def test_highlighted_chrome_trace_marks_critical_spans(fig5_run):
    plane, analysis = fig5_run
    trace = highlighted_chrome_trace(plane.spans.spans, analysis)
    marked = [e for e in trace["traceEvents"]
              if e.get("args", {}).get("critical")]
    assert marked, "no critical-path spans highlighted"
    for event in marked:
        assert event["cat"].endswith(",critical")
        assert event["args"]["span_id"] in analysis.critical_span_ids()
    unmarked = [e for e in trace["traceEvents"]
                if not e.get("args", {}).get("critical")]
    assert unmarked, "highlighting must be selective"
    json.dumps(trace)  # still JSON-serialisable


def test_cli_writes_byte_identical_outputs(tmp_path):
    argv = ["--seed", "13", "--clients", "2", "--warmup", "0.01",
            "--duration", "0.03"]
    for i in (1, 2):
        assert obs_main(argv + ["--out", str(tmp_path / f"r{i}")]) == 0
    for name in ("critpath.txt", "critpath.json", "trace.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, f"{name} differs between same-seed runs"
    payload = json.loads((tmp_path / "r1" / "critpath.json").read_text())
    assert payload["tool"] == "repro.obs.critpath"
    assert payload["min_coverage"] >= 0.95


# -- early votes wait at the host (DESIGN.md D12) ---------------------------------


def _forwarded_cell(batching):
    from repro.apps.kvstore import KvStore
    from repro.deploy import build_troxy
    from repro.obs.probes import ObsPlane

    cluster = build_troxy(
        seed=301, shards=2, app_factory=KvStore, batching=batching, leases="off"
    )
    plane = ObsPlane().attach(cluster)
    keys = [
        k for k in (f"k{i}" for i in range(64))
        if cluster.router.group_of_key(k) == "g1"
    ]
    return cluster, plane, cluster.hosts[0], keys


def test_a_held_vote_is_voting_wait_and_lies_inside_the_deciding_crossing():
    from repro.apps.kvstore import put
    from repro.hybster.messages import Reply

    cluster, plane, host, keys = _forwarded_cell("off")
    votes = []

    def second_vote_is_late(attempt):
        if attempt.dst == host.node.name and isinstance(attempt.payload, Reply):
            votes.append(attempt.payload)
            if len(votes) > 1:
                attempt.extra_delay = 0.001 * (len(votes) - 1)

    cluster.net.add_send_filter(second_vote_is_late)
    (client,) = plane.wrap_clients([cluster.new_client(contact_index=0)])
    cluster.env.process(client.invoke(put(keys[0], b"v")))
    cluster.env.run(until=1.0)
    plane.finalize()

    trace = f"{client.client_id}#1"
    mine = [s for s in plane.spans.trace(trace) if s.node == host.node.name]
    arrivals = [s for s in mine if s.name == "troxy.host" and s.attrs["type"] == "Reply"]
    (crossing,) = [s for s in mine if s.name == "enclave.ecall:handle_replica_reply"]
    counted = [s for s in mine if s.name == "troxy.vote"]
    # The first vote's host span opens and closes on arrival; a
    # millisecond later the second one crosses and both are counted.
    assert arrivals[0].duration == 0.0
    assert crossing.start - arrivals[0].start >= 0.001
    assert [s.attrs["outcome"] for s in counted] == ["wait", "decided"]
    assert all(crossing.start <= s.start and s.end <= crossing.end for s in counted)
    # That millisecond is the voter waiting, not the Troxy accepting.
    attribution = attribute_trace(plane.spans.spans, trace)
    assert attribution.coverage == pytest.approx(1.0)
    assert attribution.slices[("voting", "wait")] >= 0.001
    assert attribution.phase_seconds("troxy_accept") < 0.0002
    assert plane.registry.value("troxy_host_held_votes", node=host.replica_id) == 1


def test_a_bundle_crossing_joins_the_tree_of_every_request_it_votes_on():
    from repro.apps.kvstore import put

    cluster, plane, host, keys = _forwarded_cell("adaptive")
    clients = plane.wrap_clients(
        [cluster.new_client(contact_index=0) for _ in range(4)]
    )
    for client, key in zip(clients, keys):
        cluster.env.process(client.invoke(put(key, b"v")))
    cluster.env.run(until=1.0)
    plane.finalize()
    assert any(r.stats.batched_requests > r.stats.batches_sent for r in cluster.replicas)
    shared = {}
    for client in clients:
        crossings = [
            s for s in plane.spans.trace(f"{client.client_id}#1")
            if s.name.startswith("enclave.ecall:handle_replica_reply")
            and s.node == host.node.name
        ]
        assert crossings, "the deciding crossing is missing from the tree"
        for span in crossings:
            shared.setdefault((span.start, span.end), set()).add(span.trace_id)
    # One crossing, several requests: the same interval in each tree.
    assert any(len(traces) > 1 for traces in shared.values())
    assert analyze(plane.spans).min_coverage() == pytest.approx(1.0)
