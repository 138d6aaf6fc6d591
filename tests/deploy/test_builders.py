"""Unit tests for the deployment builders."""

import pytest

from repro.apps.kvstore import KvStore
from repro.deploy import (
    WAN_DELAY,
    build_baseline,
    build_prophecy,
    build_standalone,
    build_troxy,
)
from repro.sim.network import NicConfig


def test_baseline_topology():
    cluster = build_baseline(seed=1, app_factory=KvStore)
    assert len(cluster.replicas) == 3
    assert len(cluster.machines) == 2
    assert cluster.leader.replica_id == "replica-0"
    assert {r.replica_id for r in cluster.replicas} == set(cluster.config.replica_ids)


def test_baseline_f2_has_five_replicas():
    cluster = build_baseline(seed=1, f=2, app_factory=KvStore)
    assert len(cluster.replicas) == 5
    assert cluster.config.commit_quorum == 3


def test_app_factory_required():
    with pytest.raises(ValueError):
        build_baseline(seed=1)
    with pytest.raises(ValueError):
        build_troxy(seed=1)


def test_troxy_boundary_selection():
    sgx = build_troxy(seed=1, app_factory=KvStore, boundary="sgx")
    jni = build_troxy(seed=1, app_factory=KvStore, boundary="jni")
    free = build_troxy(seed=1, app_factory=KvStore, boundary="none")
    assert sgx.hosts[0].enclave.costs.per_call > jni.hosts[0].enclave.costs.per_call
    assert free.hosts[0].enclave.costs.per_call == 0.0
    with pytest.raises(ValueError):
        build_troxy(seed=1, app_factory=KvStore, boundary="tpm")


def test_troxy_cores_runtime_profiles():
    sgx = build_troxy(seed=1, app_factory=KvStore, boundary="sgx")
    assert sgx.cores[0].profile.name == "cpp_sgx"
    jni = build_troxy(seed=1, app_factory=KvStore, boundary="jni")
    assert jni.cores[0].profile.name == "cpp"


def test_troxy_client_round_robin_contacts():
    cluster = build_troxy(seed=1, app_factory=KvStore)
    contacts = [cluster.new_client().contact.replica_id for _ in range(6)]
    assert set(contacts) == {"replica-0", "replica-1", "replica-2"}


def test_wan_latency_applied_to_client_links_only():
    cluster = build_troxy(seed=1, app_factory=KvStore, wan=WAN_DELAY)
    overrides = cluster.net._latency_overrides
    assert ("client-machine-0", "replica-0") in overrides
    assert ("replica-0", "client-machine-0") in overrides
    assert ("replica-0", "replica-1") not in overrides  # LAN stays fast


def test_client_nic_override():
    nic = NicConfig(count=1, bandwidth=1000.0)
    cluster = build_baseline(seed=1, app_factory=KvStore, client_nic=nic)
    assert cluster.machines[0].node.nic.bandwidth == 1000.0
    assert cluster.replicas[0].node.nic.bandwidth != 1000.0


def test_standalone_topology():
    cluster = build_standalone(seed=1, app_factory=KvStore)
    assert cluster.server.replica_id == "server-0"
    assert len(cluster.machines) == 2


def test_prophecy_topology():
    cluster = build_prophecy(seed=1, app_factory=KvStore)
    assert cluster.middlebox.replica_id == "prophecy-mb"
    assert len(cluster.replicas) == 3


def test_troxy_enclaves_attested_distinct_instances():
    cluster = build_troxy(seed=1, app_factory=KvStore)
    measurements = {h.enclave.measurement for h in cluster.hosts}
    assert len(measurements) == 1  # same code identity everywhere
    names = {h.enclave.name for h in cluster.hosts}
    assert len(names) == 3  # distinct instances


def test_builders_are_deterministic():
    def run(seed):
        # WAN latency sampling is the stochastic part; the LAN path is
        # fully deterministic regardless of seed.
        cluster = build_troxy(seed=seed, app_factory=KvStore, wan=WAN_DELAY)
        client = cluster.new_client()
        from repro.apps.kvstore import put

        done = []

        def driver():
            outcome = yield from client.invoke(put("k", b"v"))
            done.append((cluster.env.now, outcome.latency))

        cluster.env.process(driver())
        cluster.env.run(until=5.0)
        return done

    assert run(9) == run(9)
    assert run(9) != run(10)
