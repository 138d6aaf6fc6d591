"""Campaign runner: determinism, CLI, and scenario catalogue checks."""

import json

import pytest

from repro.faults.__main__ import main
from repro.faults.campaign import (
    report_to_json,
    resolve_scenarios,
    run_campaign,
    run_scenario,
)
from repro.faults.schedule import SCENARIOS, get_scenario, scenario_names


def test_resolve_scenarios():
    assert resolve_scenarios("all") == list(scenario_names())
    assert resolve_scenarios("healthy_control, troxy_crash_failover") == [
        "healthy_control",
        "troxy_crash_failover",
    ]
    with pytest.raises(KeyError):
        resolve_scenarios("no_such_scenario")


def test_catalogue_is_well_formed():
    for scenario in SCENARIOS.values():
        assert scenario.description
        assert scenario.paper_ref
        assert scenario.horizon > 0
        for event in scenario.schedule.events:
            assert event.at < scenario.horizon


def test_same_seed_reruns_are_byte_identical():
    first = run_campaign(["healthy_control"], [0])
    second = run_campaign(["healthy_control"], [0])
    assert report_to_json(first) == report_to_json(second)


def test_healthy_control_passes_all_invariants():
    result = run_scenario(get_scenario("healthy_control"), 0)
    assert result["ok"]
    assert [inv["name"] for inv in result["invariants"]] == [
        "linearizability",
        "liveness",
        "counter_monotonicity",
    ]
    assert all(inv["ok"] for inv in result["invariants"])
    assert result["stats"]["ops_completed"] > 0
    assert result["fault_log"] == []


def test_enclave_reboot_scenario_records_counter_snapshots():
    result = run_scenario(get_scenario("enclave_reboot_rollback"), 0)
    assert result["ok"]
    assert result["stats"]["enclave_reboots"] == 2
    assert [e["event"] for e in result["fault_log"]] == ["inject", "inject"]


def test_cli_report_roundtrip(tmp_path, capsys):
    code = main([
        "--scenarios", "healthy_control", "--seeds", "0",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "campaign.json").read_text())
    assert report["summary"] == {"total": 1, "passed": 1, "failed": []}
    # A literal seed list reproduces exactly the run the library makes.
    (run,) = report["runs"]
    assert report_to_json(run) == report_to_json(
        run_scenario(get_scenario("healthy_control"), 0)
    )
    out = capsys.readouterr().out
    assert "PASS" in out and "healthy_control" in out


@pytest.mark.parametrize("batch", ["4", "off,1", "none"])
def test_cli_batch_is_off_or_adaptive(batch):
    with pytest.raises(SystemExit):
        main(["--scenarios", "healthy_control", "--seeds", "0", "--batch", batch])


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_replayed_reply_does_not_repoison_fast_read_cache():
    """Regression: a client retransmission after tamper-induced failover
    is answered from the replicas' duplicate-suppression cache; that
    replayed read once re-installed its (by then overwritten) value into
    the fast-read caches, and a later fast read served the stale value.
    Replays must never install cache entries."""
    result = run_scenario(get_scenario("host_tamper_replies"), 1)
    assert result["ok"], [inv for inv in result["invariants"] if not inv["ok"]]


def test_replayed_reply_quorum_cannot_feed_a_lease_read():
    """Regression: a vote quorum formed over *replayed* replies
    (duplicate-suppression answers to a post-failover retransmission)
    installed the replay's original-execution-position value as a voted
    cache entry. The voted fast-read path never served it (remote caches
    were purged, so no f+1 corroboration), but a read lease served the
    poisoned entry locally. Replies now carry a Troxy-authenticated
    ``fresh`` bit and a replayed quorum is decided without installing
    (docs/READS.md)."""
    from dataclasses import replace as dc_replace

    scenario = dc_replace(
        get_scenario("host_tamper_replies"),
        name="host_tamper_replies_leases",
        cluster_kwargs=(("leases", "on"),),
    )
    result = run_scenario(scenario, 1)
    assert result["ok"], [inv for inv in result["invariants"] if not inv["ok"]]
    assert result["stats"]["lease_read_hits"] > 0


def test_injection_timeline_recorded():
    """Every injected fault gets a sim-time activation record; timed
    faults also get their heal time, paired FIFO per fault string."""
    result = run_scenario(get_scenario("message_delay_burst"), 0)
    assert len(result["injections"]) == 1
    record = result["injections"][0]
    assert record["t"] == pytest.approx(0.2)
    assert record["healed_t"] == pytest.approx(2.2)
    assert "MessageDelay" in record["fault"]
    # Permanent faults (no heal) keep healed_t = None.
    crash = run_scenario(get_scenario("enclave_reboot_rollback"), 0)
    assert len(crash["injections"]) == 2
    assert all(r["healed_t"] is None for r in crash["injections"])
    # Fault-free runs record an empty timeline.
    quiet = run_scenario(get_scenario("healthy_control"), 0)
    assert quiet["injections"] == []


def test_wire_hit_stats_split_by_kind():
    """Regression: ``tampered_or_dropped`` once counted *every* wire-rule
    hit, so a delay-only scenario reported phantom tampering. The stat
    now covers only tamper + loss + corruption; delays and taps get
    their own ``wire_hits`` buckets."""
    delayed = run_scenario(get_scenario("message_delay_burst"), 0)
    stats = delayed["stats"]
    assert stats["wire_hits"]["delayed"] > 0
    assert stats["tampered_or_dropped"] == 0

    tampered = run_scenario(get_scenario("host_tamper_replies"), 1)
    hits = tampered["stats"]["wire_hits"]
    assert hits["tampered"] > 0 and hits["delayed"] == 0
    assert tampered["stats"]["tampered_or_dropped"] == (
        hits["tampered"] + hits["dropped"] + hits["corrupted"]
    )


def test_injections_carry_ground_truth():
    crash = run_scenario(get_scenario("troxy_crash_failover"), 1)
    grounds = [r["ground_truth"] for r in crash["injections"]]
    assert {"blame": "node", "targets": ["replica-1"], "required": True} in grounds
    # Benign wire faults carry no blame assignment.
    delayed = run_scenario(get_scenario("message_delay_burst"), 0)
    assert all(r["ground_truth"] is None for r in delayed["injections"])


def test_run_scenario_with_obs_plane_unperturbed():
    """Attaching an ObsPlane must not change the campaign report."""
    from repro.obs import ObsPlane

    bare = run_scenario(get_scenario("healthy_control"), 0)
    plane = ObsPlane()
    observed = run_scenario(get_scenario("healthy_control"), 0, plane=plane)
    assert observed.pop("plane") is plane
    assert report_to_json({"runs": [bare]}) == report_to_json(
        {"runs": [observed]}
    )
    assert len(plane.spans) > 0
    assert plane.registry.total("client_invocations_total") > 0


@pytest.mark.slow
def test_full_catalogue_seed0_green():
    report = run_campaign(list(scenario_names()), [0])
    assert report["summary"]["failed"] == []
