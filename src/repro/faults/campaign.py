"""Deterministic chaos campaigns over the scenario catalogue.

``run_scenario`` builds a fresh Troxy cluster, runs the scenario's
client workload underneath its fault schedule, and evaluates the three
invariants; ``run_campaign`` sweeps shards × batching × scenarios ×
seeds, optionally under an observing plane, and aggregates a
JSON-serialisable report. Determinism is absolute: every random choice
flows from ``RngTree(seed)`` streams and the report contains no
wall-clock data, so the same (scenario, seed) pair reproduces the same
report byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..analysis.history import HistoryRecorder
from ..apps.kvstore import KvStore, get, put
from ..deploy import build_troxy
from ..sim.rng import RngTree
from .injector import FaultPlane
from .model import Fault
from .invariants import (
    check_counter_monotonicity,
    check_linearizability,
    check_liveness,
)
from .schedule import Scenario, WorkloadSpec, get_scenario, scenario_names


@dataclass
class DriverState:
    """Progress of one workload client."""

    client_id: str
    ops: int = 0
    retries: int = 0
    done: bool = False


def _workload_driver(env, client, spec: WorkloadSpec, rng, state: DriverState):
    for n in range(spec.ops_per_client):
        key = rng.choice(spec.keys)
        if rng.random() < spec.write_ratio:
            # Unique written values: the zone check needs them.
            outcome = yield from client.invoke(
                put(key, f"{state.client_id}/{n}".encode())
            )
        else:
            outcome = yield from client.invoke(get(key))
        state.ops += 1
        state.retries += outcome.retries
        if spec.think_time:
            yield env.timeout(spec.think_time)
    state.done = True


def run_scenario(
    scenario: Scenario, seed: int, plane=None, batching=None, shards: int = 1,
) -> dict:
    """Run one scenario at one seed; returns a JSON-serialisable result.

    ``batching`` optionally switches agreement batching on the cluster
    (``"off"`` or ``"adaptive"``, as :func:`repro.deploy.resolve_batching`
    takes it); the invariants are batching-agnostic, so the same
    catalogue re-runs batched (docs/BATCHING.md).

    ``shards`` optionally forces a group count; the cluster gets
    ``max(scenario.shards, shards)`` agreement groups so migration
    scenarios always have their two groups. The invariants are
    shard-agnostic — linearizability is checked over the whole keyspace,
    counters per replica across all groups (docs/SHARDING.md).

    ``plane`` optionally accepts an observing plane (duck-typed — no
    obs import here: an ``ObsPlane``, ``HealthPlane`` or ``AuditPlane``):
    it is attached to the freshly built cluster, each workload client is
    wrapped so invocations open root spans, and it is finalized once the
    invariants are checked. The result then carries the live plane under
    ``"plane"``, a key to pop before dumping the result.
    """
    rng_tree = RngTree(seed)
    effective_shards = max(scenario.shards, shards)
    cluster = build_troxy(
        seed=seed, shards=effective_shards, app_factory=KvStore,
        batching=batching, **scenario.build_kwargs(),
    )
    recorder = HistoryRecorder(cluster.env)
    faults = FaultPlane(
        cluster,
        rng=rng_tree.derive("faults", scenario.name),
        recorder=recorder,
    )
    if plane is not None:
        plane.attach(cluster)

    spec = scenario.workload
    drivers: list[DriverState] = []
    for i in range(spec.clients):
        client = recorder.wrap(
            cluster.new_client(request_timeout=spec.request_timeout)
        )
        if plane is not None:
            client = plane.wrap_clients([client])[0]
        state = DriverState(client_id=client.client_id)
        drivers.append(state)
        cluster.env.process(
            _workload_driver(
                cluster.env,
                client,
                spec,
                rng_tree.derive("workload", scenario.name, str(i)),
                state,
            ),
            name=f"chaos:driver-{state.client_id}",
        )

    faults.drive(scenario.schedule)
    cluster.env.run(until=scenario.horizon)

    unfinished = [d.client_id for d in drivers if not d.done]
    unfinished += [s.client_id for s in faults.attack_states if not s.done]
    # A scheduled shard handoff that has not cut over by the horizon is
    # a stalled migration — a liveness failure like an unfinished client.
    migration_reports = cluster.migrator.reports if cluster.migrator else []
    unfinished += [
        f"migration-{r.migration_id}" for r in migration_reports if not r.completed
    ]

    counter_chains = {
        replica.replica_id: faults.counter_baselines.get(replica.replica_id, [])
        + [replica.counters.snapshot()]
        for replica in cluster.replicas
    }

    invariants = [
        check_linearizability(recorder.records),
        check_liveness(unfinished),
        check_counter_monotonicity(counter_chains),
    ]

    stats = {
        "ops_completed": sum(d.ops for d in drivers),
        "client_retries": sum(d.retries for d in drivers),
        "attack_ops": sum(s.completed for s in faults.attack_states),
        "history_length": len(recorder.records),
        "fast_read_hits": sum(c.stats.fast_read_hits for c in cluster.cores),
        "fast_read_conflicts": sum(
            c.stats.fast_read_conflicts for c in cluster.cores
        ),
        "fast_read_timeouts": sum(
            c.stats.fast_read_timeouts for c in cluster.cores
        ),
        "ordered_requests": sum(c.stats.ordered_requests for c in cluster.cores),
        "invalid_messages": sum(c.stats.invalid_messages for c in cluster.cores),
        "switches_to_total_order": sum(
            c.monitor.stats.switches_to_total_order for c in cluster.cores
        ),
        "enclave_reboots": sum(h.enclave.stats.reboots for h in cluster.hosts),
        "lease_read_hits": sum(c.stats.lease_read_hits for c in cluster.cores),
        "lease_grants_installed": sum(
            c.stats.lease_grants_installed for c in cluster.cores
        ),
        "lease_grants_fenced": sum(
            c.stats.lease_grants_fenced for c in cluster.cores
        ),
        "lease_revocations": sum(
            c.stats.lease_revocations for c in cluster.cores
        ),
        "lease_writes_parked": sum(
            r.stats.lease_writes_parked for r in cluster.replicas
        ),
    }
    # Wire-fault hits per kind: delayed messages arrive late, so only
    # tamper/loss/corrupt hits count as actually harmed traffic.
    wire_hits = faults.wire_hit_counts()
    stats["wire_hits"] = wire_hits
    stats["tampered_or_dropped"] = (
        wire_hits["tampered"] + wire_hits["dropped"] + wire_hits["corrupted"]
    )
    router = cluster.router
    if router is not None:
        stats["shard_forwards"] = router.stats.forwards
        stats["shard_frozen_rejects"] = router.stats.frozen_rejects
        stats["migrations_completed"] = sum(
            1 for r in migration_reports if r.completed
        )
        stats["migrated_keys"] = sum(r.moved_keys for r in migration_reports)

    # First-class injection timeline: one record per injected fault with
    # its sim-time activation (and, when healed, deactivation) timestamp
    # plus the audit ground truth the fault names for itself.
    injections: list[dict] = []
    pending: dict[Fault, list[dict]] = {}
    for event, t, fault in faults.timeline:
        if event == "inject":
            record = {
                "fault": fault.describe(), "t": t, "healed_t": None,
                "ground_truth": fault.ground_truth(faults),
            }
            injections.append(record)
            pending.setdefault(fault, []).append(record)
        elif pending.get(fault):
            pending[fault].pop(0)["healed_t"] = t

    result = {
        "scenario": scenario.name,
        "seed": seed,
        "batching": _setting(batching),
        "shards": effective_shards,
        "paper_ref": scenario.paper_ref,
        "horizon": scenario.horizon,
        "ok": all(r.ok for r in invariants),
        "invariants": [r.as_dict() for r in invariants],
        "stats": stats,
        "fault_log": faults.log,
        "injections": injections,
    }
    if plane is not None:
        plane.finalize()
        result["plane"] = plane
    return result


def _setting(batching) -> str:
    return "off" if batching is None else str(batching)


def resolve_scenarios(spec: str) -> list[str]:
    """Expand a ``--scenarios`` argument into catalogue names."""
    if spec.strip() == "all":
        return list(scenario_names())
    names = [name.strip() for name in spec.split(",") if name.strip()]
    for name in names:
        get_scenario(name)  # raises KeyError with the known list
    return names


def run_campaign(
    names: list[str], seeds: list[int], shards=(1,), batching=(None,),
    plane=None,
) -> dict:
    """Run every (shards, batching, scenario, seed) cell, in that loop
    order, and aggregate a report.

    ``plane`` is an optional plane factory (``HealthPlane``,
    ``AuditPlane``, ...): each run gets a fresh one, and its record
    carries it under ``"plane"`` (see :func:`run_scenario`).
    """
    results = [
        run_scenario(
            get_scenario(name), seed, batching=setting, shards=count,
            plane=None if plane is None else plane(),
        )
        for count in shards
        for setting in batching
        for name in names
        for seed in seeds
    ]
    failed = [
        {key: r[key] for key in ("scenario", "seed", "shards", "batching")}
        for r in results
        if not r["ok"]
    ]
    return {
        "tool": "repro.faults",
        "scenarios": names,
        "seeds": list(seeds),
        "batching": [_setting(setting) for setting in batching],
        "shards": list(shards),
        "runs": results,
        "summary": {
            "total": len(results),
            "passed": len(results) - len(failed),
            "failed": failed,
        },
    }


def report_to_json(report: dict) -> str:
    """Canonical byte-stable encoding of a campaign report."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report: dict) -> str:
    """Terminal summary of a campaign report."""
    lines = []
    for run in report["runs"]:
        verdict = "PASS" if run["ok"] else "FAIL"
        stats = run["stats"]
        lines.append(
            f"{verdict}  {run['scenario']:<28} seed={run['seed']:<3} "
            f"sh={run['shards']} b={run['batching']:<8} "
            f"ops={stats['ops_completed']:<4} retries={stats['client_retries']:<3} "
            f"ordered={stats['ordered_requests']:<4} "
            f"to-switches={stats['switches_to_total_order']}"
        )
        if not run["ok"]:
            for inv in run["invariants"]:
                if not inv["ok"]:
                    lines.append(f"      {inv['name']}: {inv['detail']}")
    summary = report["summary"]
    lines.append(
        f"{summary['passed']}/{summary['total']} runs passed"
        + ("" if not summary["failed"] else f", failed: {summary['failed']}")
    )
    return "\n".join(lines)
