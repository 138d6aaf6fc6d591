"""Layering: ``repro.deploy`` sits below bench/shard/faults/obs, no
module reads the environment, and the layers report on the probe bus
alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def modules():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text())


def imported_modules(rel: str, tree: ast.Module):
    """Absolute dotted names of everything ``tree`` imports."""
    package = ["repro", *rel.split("/")[:-1]]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            for alias in node.names:  # "from .. import bench"
                yield f"{module}.{alias.name}"


def test_nothing_below_bench_imports_bench():
    offenders = [
        (rel, name)
        for rel, tree in modules()
        if not rel.startswith("bench/") and not rel.endswith("__main__.py")
        for name in imported_modules(rel, tree)
        if name == "repro.bench" or name.startswith("repro.bench.")
    ]
    assert not offenders, offenders


def test_three_commands_ship():
    """One command per surface (DESIGN.md D19): tables, chaos, obs."""
    mains = sorted(p.parent.relative_to(ROOT).as_posix() for p in ROOT.rglob("__main__.py"))
    assert mains == ["bench", "faults", "obs"]


def test_environment_is_read_in_one_place():
    """The one place is the caller: a run is a function of its arguments
    (DESIGN.md D15, D17), so no module under ``src/repro``, CLI entry
    points included, reads ``os.environ``."""
    offenders = []
    for rel, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                offenders.append((rel, node.lineno))
    assert not offenders, offenders


def test_one_quantile_definition():
    """Every percentile in the repository is
    ``analysis.metrics.percentile`` over sorted samples (DESIGN.md D23):
    no other module defines a quantile, percentile or median function,
    or imports ``statistics``."""
    offenders = []
    for rel, tree in modules():
        if rel == "analysis/metrics.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                word in node.name.lower() for word in ("quantile", "percentile", "median")
            ):
                offenders.append((rel, node.name))
        for name in imported_modules(rel, tree):
            if name == "statistics" or name.startswith("statistics."):
                offenders.append((rel, name))
    assert not offenders, offenders


def test_hybster_imports_nothing_above_it():
    """The consensus layer stands alone: the lease role lives in
    repro.troxy and is attached by the build (DESIGN.md D11)."""
    above = ("troxy", "shard", "obs", "faults", "bench", "deploy")
    offenders = [
        (rel, name)
        for rel, tree in modules()
        if rel.startswith("hybster/")
        for name in imported_modules(rel, tree)
        if any(name == f"repro.{pkg}" or name.startswith(f"repro.{pkg}.") for pkg in above)
    ]
    assert not offenders, offenders


def module_sizes(package):
    return {
        path.name: len(path.read_text().splitlines())
        for path in sorted((ROOT / package).glob("*.py"))
    }


def test_no_hybster_module_outgrows_a_reviewer():
    sizes = module_sizes("hybster")
    assert max(sizes.values()) <= 900, sizes


def test_no_troxy_or_shard_module_outgrows_a_reviewer():
    sizes = {**module_sizes("troxy"), **module_sizes("shard")}
    assert max(sizes.values()) <= 900, sizes


def test_troxy_imports_nothing_shard_shaped():
    """The enclave's shard front lives in repro.shard and is attached by
    the build (DESIGN.md D13), so a one-group deployment loads no shard
    code at all."""
    offenders = [
        (rel, name)
        for rel, tree in modules()
        if rel.startswith("troxy/")
        for name in imported_modules(rel, tree)
        if name == "repro.shard" or name.startswith("repro.shard.")
    ]
    assert not offenders, offenders
    code = (
        "import sys; from repro.apps.kvstore import KvStore; "
        "from repro.deploy import build_troxy; "
        "build_troxy(app_factory=KvStore, shards=1, leases='on', batching='adaptive'); "
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.shard')); "
        "assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


#: The layers that report; what they may not name, besides the bus.
REPORTING_LAYERS = ("sim/", "sgx/", "hybster/", "troxy/", "shard/")
OLD_MECHANISMS = {"tracer", "Tracer", "ecall_taps", "switch_hooks", "obs"}
#: The trace log is a subscriber that happens to live in ``sim``.
TRACE_LOG = {"sim/trace.py", "sim/__init__.py"}


def test_the_layers_report_on_the_bus_and_nothing_else():
    """One mechanism (DESIGN.md D14): no observer attribute, no tracer,
    no tap list; who watches is not the layers' business."""
    offenders = []
    for rel, tree in modules():
        if not rel.startswith(REPORTING_LAYERS) or rel in TRACE_LOG:
            continue
        offenders += [
            (rel, name) for name in imported_modules(rel, tree)
            if name == "repro.obs" or name.startswith("repro.obs.")
        ]
        for node in ast.walk(tree):
            named = (
                getattr(node, "id", None) if isinstance(node, ast.Name)
                else getattr(node, "attr", None) if isinstance(node, ast.Attribute)
                else getattr(node, "arg", None) if isinstance(node, (ast.arg, ast.keyword))
                else None
            )
            if named in OLD_MECHANISMS:
                offenders.append((rel, node.lineno, named))
    assert not offenders, offenders


def test_the_span_rules_stay_one_readable_module():
    assert module_sizes("obs")["probes.py"] <= 610
