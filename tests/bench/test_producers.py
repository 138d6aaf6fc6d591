"""One producer per tracked table: every file under benchmarks/results/
is written by ``python -m repro.bench <name>`` and by nothing else;
tests read what the producers wrote (two writers drift: the pytest and
CLI bodies of table1 and fig11 differed for several PRs)."""

import ast
from collections import Counter
from pathlib import Path

from repro.bench import critpath

ROOT = Path(__file__).resolve().parents[2]


def _save_calls(path: Path) -> list[ast.Call]:
    return [
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "save_and_print"
    ]


def test_every_tracked_table_has_exactly_one_producer():
    # Constant-named calls under src/repro/bench, plus the critpath
    # sidecars that run_critpath writes in one loop.
    produced = Counter(list(critpath.SIDECARS))
    for path in (ROOT / "src" / "repro" / "bench").glob("*.py"):
        produced.update(
            call.args[0].value for call in _save_calls(path)
            if isinstance(call.args[0], ast.Constant)
        )
    assert [name for name, n in produced.items() if n > 1] == []
    assert set(produced) == {p.stem for p in (ROOT / "benchmarks" / "results").glob("*.txt")}


def test_no_benchmark_test_writes_a_table_repro_bench_owns():
    # Every test file under tests/ and benchmarks/. The one exception is
    # test_report.py's unit test of the writer, which saves "demo" into a
    # temporary directory.
    offenders = [
        path.relative_to(ROOT).as_posix()
        for tree in ("tests", "benchmarks")
        for path in (ROOT / tree).rglob("test_*.py")
        for call in _save_calls(path)
        if getattr(call.args[0], "value", None) != "demo"
    ]
    assert offenders == []
