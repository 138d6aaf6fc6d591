"""End-to-end: instrumented runs are complete, consistent, and inert.

These tests drive the real cluster + workload with an attached
``ObsPlane`` and assert the ISSUE acceptance criteria directly:

- two same-seed runs export byte-identical reports;
- per-request span trees are complete (client → host → ecall → order →
  execute → vote / cache);
- live protocol counters agree with the authoritative stats structs
  mirrored at snapshot time;
- attaching the plane perturbs nothing — the unobserved run measures
  the exact same Summary.
"""

import random

import pytest

from repro.bench.experiments import _run_system, mixed_source
from repro.obs.__main__ import run_workload
from repro.obs.export import REPORT_FILES, write_report


@pytest.fixture(scope="module")
def run():
    return run_workload(seed=7, n_clients=2, warmup=0.02, duration=0.06)


def test_same_seed_runs_export_identically(tmp_path):
    paths = []
    for i in (1, 2):
        plane, _ = run_workload(seed=11, n_clients=2, warmup=0.01, duration=0.03)
        paths.append(
            write_report(tmp_path / f"run{i}", plane.registry, plane.spans.spans)
        )
    for fmt in REPORT_FILES:
        a = paths[0][fmt].read_bytes()
        b = paths[1][fmt].read_bytes()
        assert a == b, f"{fmt} export differs between same-seed runs"


def test_all_spans_closed_after_finalize(run):
    plane, _ = run
    assert plane.spans.open_count == 0


def test_every_trace_roots_at_protocol_entry(run):
    plane, _ = run
    rec = plane.spans
    assert rec.trace_ids(), "no traces recorded"
    for tid in rec.trace_ids():
        # Requests whose client.invoke closed before a late replica
        # reply arrives legitimately grow extra host-side roots; every
        # root must still be a protocol entry point.
        for root in rec.roots(tid):
            assert root.name in {"client.invoke", "troxy.host"}, (
                f"trace {tid} rooted at {root.name}"
            )


def test_full_request_chain_recorded(run):
    plane, _ = run
    rec = plane.spans
    ordered_chain = {
        "client.invoke", "troxy.host", "hybster.order",
        "hybster.execute", "troxy.vote",
    }
    fast_chain = {"client.invoke", "troxy.host", "troxy.cache", "troxy.fast_read"}
    names_by_trace = [{s.name for s in rec.trace(t)} for t in rec.trace_ids()]
    assert any(ordered_chain <= names for names in names_by_trace), (
        "no trace contains the full ordered-write chain"
    )
    assert any(fast_chain <= names for names in names_by_trace), (
        "no trace contains the fast-read chain"
    )
    # Every ecall span sits inside some request tree.
    full = next(n for n in names_by_trace if ordered_chain <= n)
    assert any(name.startswith("enclave.ecall:") for name in full)


def test_counters_match_authoritative_stats(run):
    plane, _ = run
    reg = plane.registry
    # Live ecall-transition counters vs EnclaveStats mirrored at snapshot.
    assert reg.total("ecall_transitions_total") == reg.total("enclave_ecalls")
    # Live conflict counters vs MonitorStats.
    assert reg.total("fast_read_results_total", outcome="conflict") == reg.total(
        "monitor_conflicts"
    )
    assert reg.total("fast_read_results_total", outcome="hit") == reg.total(
        "monitor_fast_successes"
    )
    # ...and vs TroxyStats.
    assert reg.total("fast_read_results_total", outcome="hit") == reg.total(
        "troxy_fast_read_hits"
    )
    assert reg.total("votes_total", outcome="decided") == reg.total(
        "troxy_replies_voted"
    )


def test_network_tap_matches_network_totals(run):
    plane, _ = run
    reg = plane.registry
    assert reg.total("net_messages_total") == reg.value("net_messages_sent")
    assert reg.total("net_bytes_total") == reg.value("net_bytes_sent")


def test_observation_does_not_perturb_the_run():
    def measure(obs):
        source = mixed_source(0.1, random.Random(3), key_space=4)
        _, summary = _run_system(
            "etroxy", source, reply_size=64, n_clients=2,
            warmup=0.01, duration=0.04, seed=3, obs=obs,
        )
        return summary

    from repro.obs.probes import ObsPlane

    baseline = measure(None)
    observed = measure(ObsPlane())
    assert observed == baseline
