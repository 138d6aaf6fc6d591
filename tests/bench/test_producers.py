"""One producer per tracked table: what ``python -m repro.bench <name>``
writes, no benchmark test may write as well (two writers drift: the
pytest and CLI bodies of table1 and fig11 differed for several PRs)."""

import ast
from pathlib import Path

from repro.bench.__main__ import RUNNERS

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def test_no_benchmark_test_writes_a_table_repro_bench_owns():
    offenders = []
    for path in sorted(BENCHMARKS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "save_and_print"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in RUNNERS
            ):
                offenders.append((path.name, node.args[0].value))
    assert not offenders, offenders
