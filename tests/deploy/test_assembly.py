"""Assembly is byte-stable: the full protocol trace of a short fixed
workload on every system, pinned by digest.

The digests were recorded at the commit before ``repro.deploy`` replaced
the five separate builders (``bench/clusters.py`` and
``shard/cluster.py``), so they prove the one builder wires every system
exactly as its predecessor did: node-creation order, RNG stream names,
attestation and provisioning sequence. A change that moves one of them
on purpose re-records it and says why.
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
              "42d652197e29c5a4debcc82cb67075e0103a8641ca48918f00be8db6f55cbe81"),
    "troxy-shards2": (build_troxy, dict(shards=2, **OFF),
                      "cdf6c36766c283e5a366f69f7c4b278ac568cdb00dbdce186e9b007f0f4227dc"),
    "troxy-shards2-leased": (build_troxy, dict(shards=2, batching="adaptive", leases="on"),
                             "fb8398ce83cc65c296125a71ab3e5696209631700bd64fb9256a36e20063ee04"),
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
    assert all(core.router is None for core in one.cores)
    two = build_troxy(seed=71, app_factory=KvStore, shards=2)
    assert two.router is not None and two.migrator is not None
    assert all(core.router is two.router for core in two.cores)
    assert two.config is two.groups[0].config
    assert [r.replica_id for r in two.replicas[:3]] == list(one.config.replica_ids)
