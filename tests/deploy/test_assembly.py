"""Assembly is byte-stable: the full protocol trace of a short fixed
workload on every system, pinned by digest.

The digests were recorded at the commit before ``repro.deploy`` replaced
the five separate builders (``bench/clusters.py`` and
``shard/cluster.py``), so they prove the one builder wires every system
exactly as its predecessor did: node-creation order, RNG stream names,
attestation and provisioning sequence. A change that moves one of them
on purpose re-records it and says why.

The three ``troxy*`` digests were re-recorded when early votes started
to wait at the host (DESIGN.md D12): a held vote's MAC check moves into
the deciding crossing, which shifts timestamps by under a microsecond.
The records are the same lines in the same per-node order; ``bl``,
``prophecy`` and ``standalone`` have no Troxy host and did not move.
"""

import hashlib

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_baseline, build_prophecy, build_standalone, build_troxy

OFF = dict(batching="off", leases="off")

# system -> (builder, builder keywords, sha256 of the trace)
PINNED = {
    "bl": (build_baseline, dict(batching="off"),
           "f5ae58dcbb23538398d43d363844f53cccbef3c99c99d6f6e7f0e45909b54a9e"),
    "troxy": (build_troxy, OFF,
              "e27cf7d4cebc96d2f0304858f87186412bc63a349f3c531f2f8a4455a70ffb3e"),
    "troxy-shards2": (build_troxy, dict(shards=2, **OFF),
                      "59118a3dc6e1af5892461253072ea1dc7e2a7eafb0547690ab6a14d3b8703f4f"),
    "troxy-shards2-leased": (build_troxy, dict(shards=2, batching="adaptive", leases="on"),
                             "5ce9c494086829a6c05779397fe0da69642216a329543f6f7f4d5333d972a16e"),
    "prophecy": (build_prophecy, {},
                 "2fd71c8451f93d0341b5fa34b56d6125e71f5b8c5658b3c6122021658996541a"),
    "standalone": (build_standalone, {},
                   "ded0edc777e4d346c966e9a28c11cb71f6a452b42be6b6d3b118aee18f5042a5"),
}


def trace_digest(build, **kwargs) -> str:
    deployment = build(seed=71, app_factory=KvStore, trace=True, **kwargs)
    client = deployment.new_client()
    done = []

    def driver():
        for i in range(4):
            done.append((yield from client.invoke(put(f"k{i}", b"v"))))
        for i in range(4):
            done.append((yield from client.invoke(get(f"k{i}"))))

    deployment.env.process(driver())
    deployment.env.run(until=30.0)
    assert len(done) == 8, "workload did not complete"
    lines = [str(record) for record in deployment.tracer.records]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("system", sorted(PINNED))
def test_trace_digest_is_pinned(system):
    build, kwargs, expected = PINNED[system]
    assert trace_digest(build, **kwargs) == expected


def test_one_group_builds_no_shard_machinery():
    """A feature that is off is not built (DESIGN.md D10)."""
    one = build_troxy(seed=71, app_factory=KvStore)
    assert one.ring is None and one.router is None and one.migrator is None
    assert [g.group_id for g in one.groups] == ["g0"]
    assert all(core.front is None for core in one.cores)
    two = build_troxy(seed=71, app_factory=KvStore, shards=2)
    assert two.router is not None and two.migrator is not None
    assert all(core.front.router is two.router for core in two.cores)
    assert two.config is two.groups[0].config
    assert [r.replica_id for r in two.replicas[:3]] == list(one.config.replica_ids)
