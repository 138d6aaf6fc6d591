"""Feature resolution: a keyword wins, else the ``config=`` given, else
off. Nothing reads the process environment (DESIGN.md D15). Plus the two
legacy import paths the frozen perf ledger uses."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps.kvstore import KvStore
from repro.deploy import (
    build_baseline, build_troxy, resolve_batching, resolve_features, resolve_leases,
)
from repro.hybster.config import ClusterConfig, LeaseConfig
from tests.deploy.test_assembly import trace_digest

SRC = Path(__file__).resolve().parents[2] / "src"

LEASED = LeaseConfig.on()
PINNED = ClusterConfig(f=1, batching=True, leases=LeaseConfig.on(duration=2.0))
UNBATCHED = ClusterConfig(f=1)

# (keyword, config=, exported) -> the config built. ``exported`` is the
# value of the variable a CI leg once set for that feature: inert in
# every row.
BATCHING_CASES = [
    (None, None, None, UNBATCHED),
    (None, None, "adaptive", UNBATCHED),
    (None, None, "4", UNBATCHED),
    (None, PINNED, "adaptive", PINNED),          # the config given
    (None, ClusterConfig(f=1), "adaptive", UNBATCHED),
    ("adaptive", replace(PINNED, batching=False), "16", PINNED),  # a keyword beats it
    ("off", None, "adaptive", UNBATCHED),
    (True, ClusterConfig(f=1), None, replace(UNBATCHED, batching=True)),  # typed keyword
]
LEASE_CASES = [
    (None, None, None, LeaseConfig()),
    (None, None, "on", LeaseConfig()),
    (None, None, "2.0", LeaseConfig()),
    (None, PINNED, "off", PINNED.leases),
    (None, ClusterConfig(f=1), "on", LeaseConfig()),
    ("on", PINNED, "off", LEASED),
    ("off", None, "on", LeaseConfig()),
    (True, ClusterConfig(f=1), None, LEASED),
]


@pytest.mark.parametrize("keyword,config,env,expected", BATCHING_CASES)
def test_batching_precedence(monkeypatch, keyword, config, env, expected):
    if env is not None:
        monkeypatch.setenv("REPRO_BATCHING", env)
    for build in (build_troxy, build_baseline):
        built = build(seed=1, app_factory=KvStore, config=config, batching=keyword)
        assert built.config == expected
        assert built.replicas[0].config is built.config
        assert all((r.batching is not None) == expected.batching for r in built.replicas)


@pytest.mark.parametrize("keyword,config,env,expected", LEASE_CASES)
def test_lease_precedence(monkeypatch, keyword, config, env, expected):
    if env is not None:
        monkeypatch.setenv("REPRO_LEASES", env)
    built = build_troxy(seed=1, app_factory=KvStore, config=config, leases=keyword)
    assert built.config.leases == expected
    # Off means not built: no lease counters, no lease-granting role,
    # no lease holder in the enclave.
    assert all((c.holder is not None) == expected.enabled for c in built.cores)
    assert all((r.leasing is not None) == expected.enabled for r in built.replicas)


@pytest.mark.parametrize("spelling", [2.0, "2.0", 1, "true"], ids=repr)
def test_a_lease_duration_is_a_lease_config(spelling):
    with pytest.raises(ValueError):
        resolve_leases(spelling)
    assert resolve_leases(LeaseConfig.on(duration=2.0)).duration == 2.0


@pytest.mark.parametrize("spelling", [4, "4", 1, "on"], ids=repr)
def test_a_batch_size_is_not_a_batching_setting(spelling):
    with pytest.raises(ValueError):
        resolve_batching(spelling)
    assert resolve_batching("adaptive") is resolve_batching(True) is True


@pytest.mark.parametrize("build,off", [
    (build_troxy, dict(batching="off", leases="off")),
    (build_baseline, dict(batching="off")),
])
def test_the_environment_switches_nothing_on(monkeypatch, build, off):
    """A deployment is a function of its arguments: with both variables
    of the former CI legs exported and no keyword, what is built and
    every line it traces (test_assembly's four writes and four reads; a
    lease shows in reads alone) are the explicit all-off deployment's."""
    explicit = trace_digest(build, **off)
    monkeypatch.setenv("REPRO_BATCHING", "adaptive")
    monkeypatch.setenv("REPRO_LEASES", "on")
    assert trace_digest(build) == explicit
    config = build(seed=1, app_factory=KvStore).config
    assert (config.batching, config.leases) == (False, LeaseConfig())


def test_a_feature_that_is_off_is_not_constructed(monkeypatch):
    """DESIGN.md D11, D13: an absent role is an absent feature, in the
    replica and in the enclave."""
    from repro.hybster.batching import BatchAssembler, BatchPipeline
    from repro.shard.front import ShardFront
    from repro.shard.router import ShardRouter
    from repro.troxy.lease import (
        LeaseDirectory, LeaseGranter, LeaseHolder, LeaseManager, LeaseTable,
    )
    from repro.troxy.prober import FastReadProber

    feature_classes = (BatchAssembler, BatchPipeline, LeaseManager, LeaseDirectory,
                       LeaseGranter, LeaseTable, LeaseHolder, FastReadProber)
    built = []
    for cls in (*feature_classes, ShardFront, ShardRouter):
        init = cls.__init__

        def counting(self, *args, _init=init, _cls=cls, **kwargs):
            built.append(_cls)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    off = build_troxy(
        seed=1, app_factory=KvStore, batching="off", leases="off", fast_reads=False
    )
    assert built == []
    assert all(r.batching is None and r.leasing is None for r in off.replicas)
    assert all(c.roles == (c,) and len(h.enclave.ecall_names) == 6
               for c, h in zip(off.cores, off.hosts))
    # The core declares its three role slots and no feature's state.
    shaped = ("lease", "shard", "router", "nonce", "hint", "rng")
    assert not [name for c in off.cores for name in vars(c) if any(s in name for s in shaped)]
    assert all(c.prober is c.holder is c.front is None for c in off.cores)
    batchy = [name for r in off.replicas for name in vars(r) if "batch" in name]
    assert batchy == ["batch_reply_sink", "batching"] * len(off.replicas)
    assert not [name for r in off.replicas for name in vars(r) if "lease" in name]

    on = build_troxy(seed=1, app_factory=KvStore, batching="adaptive", leases="on")
    n = len(on.replicas)
    assert {cls: built.count(cls) for cls in set(built)} == dict.fromkeys(feature_classes, n)
    for replica in on.replicas:
        assert isinstance(replica.batching, BatchPipeline)
        assert isinstance(replica.leasing, LeaseGranter)
        assert replica.leasing.sink is not None and replica.leasing.revoke_sink is not None
    assert all(len(h.enclave.ecall_names) == 11 for h in on.hosts)

    del built[:]
    sharded = build_troxy(seed=1, app_factory=KvStore, batching="off", leases="off", shards=2)
    assert built.count(ShardFront) == len(sharded.cores) and built.count(ShardRouter) == 1
    assert all(c.front.router is sharded.router for c in sharded.cores)


def test_features_resolve_independently():
    # A keyword for one feature leaves the other as the config has it.
    mixed = resolve_features(1, PINNED, batching="off", leases=None)
    assert (mixed.batching, mixed.leases) == (False, PINNED.leases)
    mixed = resolve_features(1, PINNED, batching=None, leases="off")
    assert (mixed.batching, mixed.leases) == (True, LeaseConfig())
    # A system without a feature passes no keyword for it.
    assert resolve_features(1, PINNED, batching="adaptive").leases == PINNED.leases
    assert resolve_features(1, None, batching=None).leases == LeaseConfig()
    assert resolve_features(2, None).f == 2


@pytest.mark.parametrize("order", [
    ("repro.shard:build_sharded", "repro.bench.clusters:build_troxy"),
    ("repro.bench.clusters:build_troxy", "repro.shard:build_sharded"),
])
def test_legacy_import_paths_work_as_first_import(order):
    """benchmarks/ledger/onepass.py imports these two names in a fresh
    interpreter; repro.deploy <-> repro.shard must not be a cycle."""
    imports = "; ".join(
        "from {} import {}".format(*spec.split(":")) for spec in order
    )
    code = (
        f"{imports}; import repro.deploy; "
        "assert build_sharded is build_troxy is repro.deploy.build_troxy"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
