"""The kind table is the interface between the layers and their observers
(DESIGN.md D14): every fact a site reports on the probe bus is claimed
by a rule, every rule is fed by a site, nobody listens to a deployment
unless asked to, and whoever listens perturbs nothing."""

import ast
import random
from pathlib import Path

import pytest

from repro.apps.kvstore import KvStore
from repro.bench.experiments import _CpuAccount, _run_system, mixed_source
from repro.deploy import build_baseline, build_prophecy, build_standalone, build_troxy
from repro.obs import probes
from repro.obs.audit import AuditPlane
from repro.sim import trace
from tests.feature_sets import FEATURE_SETS, feature_id

ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"
VERBS = {"event", "begin"}


def _is_probe(node) -> bool:
    """``probe`` / ``x.probe`` / ``x.y.probe``: what sites call a bus."""
    return (isinstance(node, ast.Name) and node.id == "probe") or (
        isinstance(node, ast.Attribute) and node.attr == "probe"
    )


def emitted_kinds() -> dict:
    """kind -> the files that emit it, read off the source with ``ast``:
    every ``<probe>.event(...)`` / ``<probe>.begin(...)`` under
    ``src/repro``. A site whose kind is not a literal forwards its own
    first argument (``ViewChanger._note``); the literals its callers
    pass are collected in its place, so no emission can hide."""
    kinds: dict = {}
    forwarders: dict = {}
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted(ROOT.rglob("*.py")) if path.name != "probe.py"
    }
    for path, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr in VERBS and _is_probe(call.func.value)):
                    continue
                kind = call.args[0]
                if isinstance(kind, ast.Constant):
                    kinds.setdefault(kind.value, set()).add(path.name)
                else:
                    assert isinstance(kind, ast.Name), (path, call.lineno)
                    forwarders[fn.name] = path
    for name, path in forwarders.items():
        for call in ast.walk(trees[path]):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == name):
                assert isinstance(call.args[0], ast.Constant), (path, call.lineno)
                kinds.setdefault(call.args[0].value, set()).add(path.name)
    return kinds


def test_every_emitted_kind_is_claimed_and_every_rule_is_fed():
    emitted = set(emitted_kinds())
    claimed = set(probes.RULES) | set(trace.RULES) | {_CpuAccount.KIND}
    assert emitted - claimed == set(), "a site reports what nobody consumes"
    assert claimed - emitted == set(), "a rule waits for what no site reports"
    # The trace log names its categories; none of them became a span.
    spans_of = {kind for kind, rule in probes.RULES.items() if len(rule) > 1}
    assert not {category for category, _detail in trace.RULES.values()} & spans_of
    # Every handler the span table names exists.
    plane = probes.ObsPlane()
    assert all(rule[0] is None or callable(getattr(plane, rule[0]))
               for rule in probes.RULES.values())


def test_the_layers_emit_from_where_the_design_says():
    """The two choke points are watched once each."""
    kinds = emitted_kinds()
    assert kinds["enclave.ecall"] == {"enclave.py"}
    assert kinds["troxy.host"] == {"host.py"}
    assert kinds["node.compute"] == {"network.py"}
    assert {kind: files for kind, files in kinds.items() if kind.startswith("net.")} == {
        kind: {"network.py"} for kind in ("net.send", "net.deliver", "net.fault")
    }


TROXY_FEATURES = [
    dict(features, shards=shards, fast_reads=fast_reads)
    for features in FEATURE_SETS for shards in (1, 2) for fast_reads in (True, False)
]


@pytest.mark.parametrize("features", TROXY_FEATURES, ids=feature_id)
def test_a_built_troxy_has_no_subscriber(features):
    site = build_troxy(seed=3, app_factory=KvStore, **features)
    assert site.probe.on is False
    # One bus per deployment, handed to every layer that reports.
    reporters = [site.net, *site.replicas, *site.hosts, *site.cores]
    reporters += [host.enclave for host in site.hosts]
    reporters += [replica.boundary for replica in site.replicas]
    reporters += [core.monitor for core in site.cores]
    reporters += site.net.nodes.values()
    assert all(reporter.probe is site.probe for reporter in reporters)


@pytest.mark.parametrize("build", [build_baseline, build_prophecy, build_standalone])
def test_the_other_systems_have_no_subscriber_either(build):
    site = build(seed=3, app_factory=KvStore)
    assert site.probe.on is False
    assert site.net.probe is site.probe
    assert all(replica.probe is site.probe for replica in site.replicas)
    traced = build(seed=3, app_factory=KvStore, trace=True)
    assert traced.probe.on is True  # trace=True subscribes the trace log


def test_every_subscriber_together_perturbs_nothing():
    """ObsPlane + health windows + audit ledgers (checkpoints off: they
    are the one documented place a subscriber spends simulated time) +
    the simulated-CPU account."""
    account = _CpuAccount(warmup=0.01, duration=0.04)

    class AuditAndAccount(AuditPlane):
        def attach(self, cluster):
            account.attach(cluster)
            return super().attach(cluster)

    def measure(obs):
        source = mixed_source(0.2, random.Random(3), key_space=4)
        cluster, summary = _run_system(
            "etroxy", source, reply_size=64, n_clients=2,
            warmup=0.01, duration=0.04, seed=3, obs=obs, batching="adaptive",
        )
        return summary, cluster.env.steps, cluster.env.scheduled_events

    plane = AuditAndAccount(window=0.01, checkpoint_interval=10**9)
    assert measure(plane) == measure(None)
    plane.finalize()
    assert plane.windows_evaluated > 1 and plane.ledgers and len(plane.spans) > 0
    assert account.busy and sum(account.acquisitions.values()) > 0
