"""ObsPlane across deployment shapes: bl, ctroxy — attach, detach, bytes.

The etroxy system is covered end-to-end in
``test_probes_end_to_end.py``; here the plane attaches to the baseline
(no Troxy hosts — the host/enclave sections of ``attach`` must skip
cleanly) and the co-located Troxy, detach restores the exact
pre-attach hook state, and same-seed exports stay byte-identical per
system.
"""

import pytest

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_baseline, build_troxy
from repro.obs.__main__ import run_workload
from repro.obs.export import REPORT_FILES, write_report
from repro.obs.probes import ObsPlane


def _build(system, seed):
    if system == "bl":
        return build_baseline(seed=seed, app_factory=KvStore)
    return build_troxy(
        seed=seed, app_factory=KvStore,
        boundary="jni" if system == "ctroxy" else "sgx",
    )


@pytest.mark.parametrize("system", ["bl", "ctroxy"])
def test_attach_records_and_exports_deterministically(system, tmp_path):
    paths = []
    for i in (1, 2):
        plane, summary = run_workload(
            system=system, seed=13, n_clients=2, warmup=0.01, duration=0.04
        )
        assert summary.count > 0
        assert len(plane.spans) > 0
        assert plane.registry.total("client_invocations_total") > 0
        paths.append(
            write_report(
                tmp_path / f"{system}-{i}", plane.registry, plane.spans.spans
            )
        )
    for fmt in REPORT_FILES:
        assert paths[0][fmt].read_bytes() == paths[1][fmt].read_bytes(), (
            f"{system}: {fmt} differs between same-seed runs"
        )


@pytest.mark.parametrize("system", ["bl", "ctroxy", "etroxy"])
def test_detach_restores_hook_state(system):
    cluster = _build(system, seed=5)
    assert not cluster.probe.on  # nobody watches a freshly built system
    plane = ObsPlane().attach(cluster)
    assert cluster.probe.on and plane.cluster is cluster

    plane.detach()
    assert plane.cluster is None
    # The bus is off again: every site is back to its one flag test.
    assert not cluster.probe.on
    sent = cluster.net.messages_sent
    client = cluster.new_client()

    def driver():
        yield from client.invoke(put("k", b"v"))

    cluster.env.process(driver(), name="obs-test:driver")
    cluster.env.run(until=0.5)
    assert cluster.net.messages_sent > sent
    assert len(plane.spans) == 0
    assert plane.registry.total("net_messages_total") == 0


def test_detached_plane_records_nothing_new():
    cluster = _build("ctroxy", seed=9)
    plane = ObsPlane().attach(cluster)
    client = plane.wrap_clients([cluster.new_client()])[0]

    def driver():
        yield from client.invoke(put("k", b"v"))
        yield from client.invoke(get("k"))

    cluster.env.process(driver(), name="obs-test:driver")
    cluster.env.run(until=0.5)
    recorded = len(plane.spans)
    assert recorded > 0

    plane.detach()
    bare = cluster.new_client()

    def driver2():
        yield from bare.invoke(get("k"))

    cluster.env.process(driver2(), name="obs-test:driver2")
    cluster.env.run(until=1.0)
    assert len(plane.spans) == recorded


def test_reattach_after_detach():
    cluster = _build("bl", seed=2)
    plane = ObsPlane().attach(cluster)
    plane.detach()
    plane.attach(cluster)
    assert cluster.probe.on and plane.cluster is cluster
    plane.detach()
    assert not cluster.probe.on
