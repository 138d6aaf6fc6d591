"""Regression tests: ObsPlane attach/detach lifecycle is idempotent.

A plane re-attached to its own cluster must be a no-op (double-installed
monitor hooks and network taps would double-count every metric), a plane
attached elsewhere must refuse until detached, and repeated detach()
must restore hooks exactly once.
"""

import pytest

from repro.apps.echo import EchoService
from repro.deploy import build_troxy
from repro.obs.health import HealthPlane
from repro.obs.probes import ObsPlane


def _cluster(seed=3):
    return build_troxy(
        seed=seed, app_factory=lambda: EchoService(reply_size=10)
    )


def _hook_counts(cluster):
    return (
        len(cluster.net._send_filters),
        [len(host.core.monitor.switch_hooks) for host in cluster.hosts],
    )


def test_reattach_same_cluster_is_a_noop():
    cluster = _cluster()
    plane = ObsPlane()
    assert plane.attach(cluster) is plane
    installed = _hook_counts(cluster)
    assert plane.attach(cluster) is plane
    assert _hook_counts(cluster) == installed
    assert len(plane._monitor_hooks) == len(cluster.hosts)


def test_attach_to_second_cluster_requires_detach():
    first, second = _cluster(1), _cluster(2)
    plane = ObsPlane().attach(first)
    with pytest.raises(RuntimeError, match="detach"):
        plane.attach(second)
    # The refused attach must leave the second cluster untouched.
    assert all(host.obs is None for host in second.hosts)
    plane.detach()
    plane.attach(second)
    assert all(host.obs is plane for host in second.hosts)


def test_detach_restores_hooks_exactly_once():
    cluster = _cluster()
    before = _hook_counts(cluster)
    plane = ObsPlane().attach(cluster)
    plane.detach()
    assert _hook_counts(cluster) == before
    assert all(replica.obs is None for replica in cluster.replicas)
    assert all(host.obs is None for host in cluster.hosts)
    # Second (and third) detach: no-op, no ValueError from removing
    # already-removed hooks.
    plane.detach()
    plane.detach()
    assert _hook_counts(cluster) == before


def test_detached_plane_can_reattach():
    cluster = _cluster()
    plane = ObsPlane().attach(cluster)
    plane.detach()
    assert plane.attach(cluster) is plane
    assert _hook_counts(cluster)[0] == 1
    assert all(host.obs is plane for host in cluster.hosts)


def test_health_plane_reattach_does_not_rebaseline():
    cluster = _cluster()
    plane = HealthPlane().attach(cluster)
    window = plane._win
    assert plane.attach(cluster) is plane
    # Same window object: re-attach did not reset the window clock.
    assert plane._win is window
    with pytest.raises(RuntimeError, match="detach"):
        plane.attach(_cluster(9))
