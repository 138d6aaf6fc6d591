"""One benchmark pass in this (fresh) interpreter; prints one JSON object.

``run.py`` starts this file once per pass with a scrubbed environment,
so interpreter state, memo caches and peak RSS never carry over between
passes. The pass drives the program through public entry points only:
the deployment builders, ``cluster.new_client``, ``ClosedLoop``,
``Environment.run``, the layers' ``stats`` dataclasses and, when
traced, ``ObsPlane`` / ``critpath.analyze`` / ``Network.add_delivery_tap``.

Kinds: ``plain`` (untraced), ``profile`` (the window under cProfile),
``obs`` (ObsPlane attached, clients wrapped, critical path analysed)
and ``engine`` (no workload: the reference speeds of enginebench.py).
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import resource
import sys
import time

import echo_check
import enginebench
import layers
import refloop
from spec import PHASES, WORKLOAD_BY_NAME


#: Slices per window; each is the same simulated work in every pass.
SLICES = 10
#: Operations per client over which the read/write mix is exact.
MIX_BLOCK = 20
RING_PROBES = 1024


def _summed(stats_objects) -> dict:
    """Field-wise sum of the int counters of some ``stats`` dataclasses."""
    total: dict = {}
    for stats in stats_objects:
        for field in dataclasses.fields(stats):
            value = getattr(stats, field.name)
            if isinstance(value, int):
                total[field.name] = total.get(field.name, 0) + value
    return total


class _RecordingClient:
    """Client proxy logging invocations and replies for echo_check."""

    def __init__(self, client, index: int, log: list):
        self._client = client
        self._index = index
        self._log = log

    def __getattr__(self, name):
        return getattr(self._client, name)

    def invoke(self, op):
        echo_check.record_invoke(self._log, self._index, op.key, op.is_read)
        outcome = yield from self._client.invoke(op)
        echo_check.record_return(
            self._log, self._index, op.key, op.is_read, outcome.result.content
        )
        return outcome


class _Pass:
    """A built deployment with its load generator, ready to run."""

    def __init__(self, workload, seed: int, traced: bool):
        from repro.analysis.metrics import Collector
        from repro.apps.base import Operation, OpKind, Payload
        from repro.apps.echo import EchoService
        from repro.bench.clusters import build_troxy
        from repro.shard import build_sharded
        from repro.sim import RngTree
        from repro.workloads.loadgen import ClosedLoop

        # batching/leases/shards are always explicit, so the builders
        # never fall back to the REPRO_* environment defaults.
        knobs = dict(
            seed=seed, f=1, boundary="sgx", replica_cores=2,
            app_factory=lambda: EchoService(reply_size=workload.reply_bytes),
            batching=workload.batching, leases="off",
        )
        if workload.shards > 1:
            self.cluster = build_sharded(shards=workload.shards, **knobs)
        else:
            self.cluster = build_troxy(**knobs)
        self.env = self.cluster.env

        self.plane = None
        self.delivered = {"net_msgs": 0, "net_bytes": 0}
        if traced:
            from repro.obs.probes import ObsPlane

            # Attached before clients connect, as repro.bench does, so
            # session-install ecalls are observed too.
            self.plane = ObsPlane().attach(self.cluster)
            self.cluster.net.add_delivery_tap(self._count_delivery)

        self.clients = [self.cluster.new_client() for _ in range(workload.clients)]
        driven = self.plane.wrap_clients(self.clients) if traced else self.clients
        self.history: list = []
        driven = [
            _RecordingClient(client, index, self.history)
            for index, client in enumerate(driven)
        ]

        keys = self._balanced_keys(workload.keys)
        n_keys = len(keys)
        body = Payload(b"x", padded_size=workload.request_bytes)
        # The op mix is stratified: every MIX_BLOCK operations of a
        # client hold exactly the workload's share of writes, at
        # positions drawn from the client's own seeded stream, so the
        # realised mix does not wander from seed to seed.
        writes_per_block = round(workload.write_share * MIX_BLOCK)
        ops_rng = RngTree(seed)
        mix = [ops_rng.derive("ledger", "op-mix", str(i)) for i in range(len(driven))]
        write_slots = [frozenset()] * len(driven)

        def op_source(index: int, sequence: int) -> Operation:
            slot = sequence % MIX_BLOCK
            if slot == 0:
                write_slots[index] = frozenset(
                    mix[index].sample(range(MIX_BLOCK), writes_per_block)
                )
            kind = OpKind.WRITE if slot in write_slots[index] else OpKind.READ
            name = "set" if kind is OpKind.WRITE else "get"
            return Operation(kind, name, key=keys[(index + sequence) % n_keys], body=body)

        self.loadgen = ClosedLoop(self.env, driven, op_source, Collector())

    def _count_delivery(self, message) -> None:
        self.delivered["net_msgs"] += 1
        self.delivered["net_bytes"] += message.size

    def counters(self) -> dict:
        """Every exact counter the layers expose, summed over nodes."""
        cluster = self.cluster
        cores = cluster.cores
        router = getattr(cluster, "router", None)
        enclaves = [host.enclave for host in cluster.hosts]
        enclaves += [replica.boundary for replica in cluster.replicas]
        out = {
            "sim": {
                "steps": self.env.steps,
                "scheduled_events": self.env.scheduled_events,
            },
            "hybster": _summed(r.stats for r in cluster.replicas),
            "troxy": _summed(c.stats for c in cores),
            "cache": _summed(c.cache.stats for c in cores),
            "monitor": _summed(c.monitor.stats for c in cores),
            "sgx": _summed(e.stats for e in enclaves),
            "shard": _summed([router.stats] if router is not None else []),
            "client": _summed(c.stats for c in self.clients),
            "load": _summed([self.loadgen.stats]),
        }
        if self.plane is not None:  # what only a traced pass can count
            out["obs"] = {"spans": len(self.plane.spans), **self.delivered}
        return out

    def _balanced_keys(self, count: int) -> list:
        """``count`` key names, equally many per group, groups interleaved.

        Vnode placement derives from the deployment seed, so the first
        ``count`` names land unevenly on the groups for some seeds
        (throughput then follows the hottest group: 138-167 k op/s over
        seeds 11-20). Picking names by owner keeps the offered load per
        group equal for every seed; the ring's own skew is reported as
        ``shard.ring_imbalance``.
        """
        router = getattr(self.cluster, "router", None)
        if router is None:
            return [f"k{i}" for i in range(count)]
        per_group = count // len(router.members)
        owned = {group: [] for group in router.members}
        candidate = 0
        while any(len(names) < per_group for names in owned.values()):
            key = f"k{candidate}"
            candidate += 1
            names = owned[router.group_of_key(key)]
            if len(names) < per_group:
                names.append(key)
        return [key for row in zip(*owned.values()) for key in row]

    def ring_imbalance(self) -> float:
        """Largest group's share of RING_PROBES key names over the mean."""
        router = getattr(self.cluster, "router", None)
        if router is None:
            return 1.0
        load = dict.fromkeys(router.members, 0)
        for probe in range(RING_PROBES):
            load[router.group_of_key(f"k{probe}")] += 1
        return max(load.values()) * len(load) / RING_PROBES


def _delta(after: dict, before: dict) -> dict:
    return {
        group: {name: value - before[group].get(name, 0) for name, value in fields.items()}
        for group, fields in after.items()
    }


def run_workload(name: str, seed: int, scale: float, kind: str) -> dict:
    workload = WORKLOAD_BY_NAME[name]
    run = _Pass(workload, seed, traced=(kind == "obs"))
    env = run.env
    origin = env.now
    window_start = origin + workload.warmup * scale
    window_end = window_start + workload.window * scale
    run.loadgen.start()
    env.run(until=window_start)

    before = run.counters()
    profile = cProfile.Profile() if kind == "profile" else None
    setup_s = time.process_time()  # CPU since the interpreter started

    def window_slices():
        """One slice of the window per ``next()``; yields its CPU-seconds."""
        for index in range(1, SLICES + 1):
            until = window_end if index == SLICES else (
                window_start + (window_end - window_start) * index / SLICES
            )
            if profile is not None:
                profile.enable()
            started = time.process_time()
            env.run(until=until)
            cpu_s = time.process_time() - started
            if profile is not None:
                profile.disable()
            yield cpu_s

    # Each slice runs between two chunks of the frozen reference loop,
    # so run.py can read its CPU time against how fast the box was just
    # then (refloop.py); set-up is read against the chunk that follows it.
    ruler = refloop.ReferenceLoop()
    ruler.chunk()  # warms the loop's own code paths
    setup = [setup_s, ruler.chunk()]
    slices = list(refloop.bracket(ruler, window_slices()))
    window = _delta(run.counters(), before)
    traced_window = window.pop("obs", None)

    collector = run.loadgen.collector
    summary = collector.summarize(window_start, window_end)
    samples = collector.window(window_start, window_end)
    violations = echo_check.check(run.history)
    client_totals = _summed(c.stats for c in run.clients)
    failures = {
        "client_timeouts": client_totals["timeouts"],
        "invalid_replies": client_totals["invalid_replies"],
        "loadgen_errors": run.loadgen.stats.errors,
        "echo_violations": len(violations),
    }
    result = {
        "kind": kind,
        "workload": name,
        "seed": seed,
        "scale": scale,
        # Everything under "exact" must be identical in every pass of
        # one (commit, workload, seed, scale), traced or not.
        "exact": {
            "summary": dataclasses.asdict(summary),
            "window": window,
            "writes": sum(1 for s in samples if not s.read),
            "retries": sum(s.retries for s in samples),
            "max_pipeline_depth": max(
                r.stats.max_pipeline_depth for r in run.cluster.replicas
            ),
            "ring_imbalance": run.ring_imbalance(),
            "attempted": run.loadgen.stats.completed,
            "failed": sum(failures.values()),
            "failures": failures,
        },
        "violations": violations[:5],
        # [CPU-seconds, CPU-seconds of the reference chunks around them]
        "setup": setup,
        "slices": slices,
    }
    if profile is not None:
        result["profile"] = layers.bucket(profile)
    if run.plane is not None:
        result["obs"] = {
            **traced_window,
            **_critical_path(run.plane, window_start, window_end),
        }
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def _critical_path(plane, window_start: float, window_end: float) -> dict:
    from repro.obs import critpath

    if critpath.PHASES != PHASES:
        raise RuntimeError(f"spec.PHASES is stale: {critpath.PHASES}")
    plane.finalize()
    in_window = [
        span.trace_id
        for span in plane.spans.spans
        if span.name == "client.invoke"
        and span.parent_id is None
        and not span.attrs.get("unfinished")
        and span.end is not None
        and window_start <= span.end < window_end
    ]
    analysis = critpath.analyze(plane.spans, trace_ids=in_window)
    requests = len(analysis.requests)
    phases = {}
    for phase in PHASES:
        for part in ("wait", "service"):
            total = analysis.totals.get((phase, part), 0.0)
            phases[f"{phase}.{part}_ms"] = total / requests * 1e3 if requests else 0.0
    return {
        "requests": requests,
        "coverage_min": analysis.min_coverage(),
        "phases": phases,
    }


def run_engine(seed: int) -> dict:
    """Reference speeds: per slice [events per CPU-s, bracketing chunk CPU-s]."""
    ruler = refloop.ReferenceLoop()
    ruler.chunk()
    return {
        "kind": "engine",
        "floor_events_per_s": list(
            refloop.bracket(ruler, enginebench.floor_events_per_s())
        ),
        "engine_only_steps_per_s": list(
            refloop.bracket(ruler, enginebench.engine_only_steps_per_s(seed))
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True,
                        choices=("plain", "profile", "obs", "engine"))
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.kind == "engine":
        result = run_engine(args.seed)
    else:
        if args.workload is None:
            parser.error("--workload is required for this kind")
        result = run_workload(args.workload, args.seed, args.scale, args.kind)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
