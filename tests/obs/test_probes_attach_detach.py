"""Regression tests: the ObsPlane attach/detach lifecycle.

A plane re-attached to its own cluster must be a no-op (a second
subscription would double-count every metric), a plane attached
elsewhere must refuse until detached, repeated detach() is a no-op, and
detaching while requests are in flight must neither break the run nor
leave anything open or recorded after the detach instant.
"""

import pytest

from repro.apps.echo import EchoService
from repro.apps.kvstore import KvStore, put
from repro.deploy import build_troxy
from repro.obs.health import HealthPlane
from repro.obs.probes import ObsPlane

#: Detach instants inside a 20-write run (~0.11 ms per write): the two
#: the parent crashed on first (a host span / a root span in flight),
#: then four more spread over the run.
DETACH_AT = (50e-6, 0.3e-3, 0.5e-3, 0.8e-3, 1.3e-3, 2.1e-3)


def _cluster(seed=3):
    return build_troxy(
        seed=seed, app_factory=lambda: EchoService(reply_size=10)
    )


def _run_writes(cluster, client, count=20, until=5.0):
    """``count`` sequential writes; returns their results."""
    done = []

    def driver():
        for i in range(count):
            done.append((yield from client.invoke(put(f"k{i}", b"v"))))

    cluster.env.process(driver(), name="obs-test:writes")
    cluster.env.run(until=cluster.env.now + until)
    return done


def _crossings(cluster) -> int:
    enclaves = [host.enclave for host in cluster.hosts]
    enclaves += [replica.boundary for replica in cluster.replicas]
    return sum(enclave.stats.ecalls for enclave in enclaves)


def test_reattach_same_cluster_is_a_noop():
    cluster = _cluster()
    plane = ObsPlane()
    assert plane.attach(cluster) is plane
    assert plane.attach(cluster) is plane
    done = _run_writes(cluster, plane.wrap_clients([cluster.new_client()])[0])
    assert len(done) == 20
    # Subscribed once: every crossing and every message counted once.
    reg = plane.registry
    assert reg.total("ecall_transitions_total") == _crossings(cluster)
    assert reg.total("client_invocations_total") == 20
    assert reg.total("executions_total") == 20 * len(cluster.replicas)


def test_attach_to_second_cluster_requires_detach():
    first, second = _cluster(1), _cluster(2)
    plane = ObsPlane().attach(first)
    with pytest.raises(RuntimeError, match="detach"):
        plane.attach(second)
    # The refused attach must leave the second cluster untouched.
    assert first.probe.on and not second.probe.on
    plane.detach()
    plane.attach(second)
    assert second.probe.on and not first.probe.on
    assert plane.cluster is second


def test_detach_restores_hooks_exactly_once():
    cluster = _cluster()
    assert not cluster.probe.on
    plane = ObsPlane().attach(cluster)
    assert cluster.probe.on
    plane.detach()
    assert not cluster.probe.on and plane.cluster is None
    # Second (and third) detach: no-op, nothing left to remove twice.
    plane.detach()
    plane.detach()
    assert not cluster.probe.on
    assert len(_run_writes(cluster, cluster.new_client(), count=3)) == 3
    assert len(plane.spans) == 0


def test_detached_plane_can_reattach():
    cluster = _cluster()
    plane = ObsPlane().attach(cluster)
    plane.detach()
    assert plane.attach(cluster) is plane
    assert cluster.probe.on
    done = _run_writes(cluster, cluster.new_client(), count=5)
    assert len(done) == 5
    assert plane.registry.total("ecall_transitions_total") == _crossings(cluster)


def test_health_plane_reattach_does_not_rebaseline():
    cluster = _cluster()
    plane = HealthPlane().attach(cluster)
    window = plane._win
    assert plane.attach(cluster) is plane
    # Same window object: re-attach did not reset the window clock.
    assert plane._win is window
    with pytest.raises(RuntimeError, match="detach"):
        plane.attach(_cluster(9))


# -- detaching never breaks the run --------------------------------------------------


def _detach_at(cluster, plane, t):
    def detacher():
        yield cluster.env.timeout(t)
        plane.detach()

    cluster.env.process(detacher(), name="obs-test:detacher")


def _assert_nothing_after(plane, t):
    assert plane.spans.open_count == 0
    assert all(span.start <= t and span.end <= t for span in plane.spans.spans)


@pytest.mark.parametrize("t", DETACH_AT)
def test_detach_mid_flight_leaves_the_run_untouched(t):
    """The parent raised ``'NoneType' object has no attribute 'host_end'``
    out of ``env.run``: every begin/end pair re-read the detached plane."""
    cluster = build_troxy(seed=7, app_factory=KvStore)
    plane = ObsPlane().attach(cluster)
    _detach_at(cluster, plane, t)
    done = _run_writes(cluster, cluster.new_client())
    assert len(done) == 20 and all(result is not None for result in done)
    assert len(plane.spans) > 0
    recorded = len(plane.spans)
    assert plane.finalize() == 0  # detach closed what was in flight
    assert len(plane.spans) == recorded
    _assert_nothing_after(plane, t)


@pytest.mark.parametrize("t", DETACH_AT)
def test_detach_mid_flight_with_wrapped_clients(t):
    """The parent raised ``span N would end before it began`` from the
    client wrapper: the detached plane's clock read 0.0."""
    cluster = build_troxy(seed=7, app_factory=KvStore)
    plane = ObsPlane().attach(cluster)
    client = plane.wrap_clients([cluster.new_client()])[0]
    _detach_at(cluster, plane, t)
    done = _run_writes(cluster, client)
    assert len(done) == 20
    plane.finalize()
    _assert_nothing_after(plane, t)
    roots = [s for s in plane.spans.spans if s.name == "client.invoke"]
    assert roots and all(root.end >= root.start for root in roots)
    # The request in flight at the detach instant: closed there, marked.
    in_flight = [root for root in roots if root.attrs.get("unfinished")]
    assert len(in_flight) == 1 and in_flight[0].end == t
    assert plane.registry.total("client_invocations_total") == len(roots) < 20


def test_second_cluster_after_detach_starts_its_own_trees():
    """Both runs name their requests ``client-1#1...``: what the plane
    knew about the first run's requests must not parent the second's."""
    first, second = _cluster(1), _cluster(2)
    plane = ObsPlane().attach(first)
    client = plane.wrap_clients([first.new_client()])[0]
    _detach_at(first, plane, 0.3e-3)
    assert len(_run_writes(first, client, count=5)) == 5
    first_run = {span.span_id for span in plane.spans.spans}
    assert first_run

    plane.attach(second)
    client = plane.wrap_clients([second.new_client()])[0]
    assert len(_run_writes(second, client, count=5)) == 5
    plane.finalize()
    second_run = [s for s in plane.spans.spans if s.span_id not in first_run]
    assert {s.trace_id for s in second_run if s.trace_id} & {
        s.trace_id for s in plane.spans.spans if s.span_id in first_run and s.trace_id
    }, "the two runs were meant to reuse trace ids"
    assert all(span.parent_id not in first_run for span in second_run)
