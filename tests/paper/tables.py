"""Read the tracked tables under benchmarks/results/.

``python -m repro.bench`` writes each table at full scale and CI's
``results`` job proves the committed bytes are what the code produces;
the tests in this package assert the paper's shapes on those bytes.
"""

import re
from itertools import dropwhile, takewhile
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def lines(name: str) -> list[str]:
    return (RESULTS / f"{name}.txt").read_text().splitlines()


def numbers(text: str) -> list[float]:
    return [float(n) for n in re.findall(r"-?\d+(?:\.\d+)?", text)]


def _cell(text: str):
    found = numbers(text)
    return found[0] if len(found) == 1 else found


def grid(name: str) -> dict[str, dict[str, object]]:
    """The first ``|``-separated block of a table as {row label: {column:
    cell}}; a cell is its number, or the list of its numbers ("25/39")."""
    text = [line for line in lines(name) if set(line) != {"-"}]
    block = takewhile(lambda l: "|" in l, dropwhile(lambda l: "|" not in l, text))
    (_, *columns), *rows = [[c.strip() for c in line.split("|")] for line in block]
    return {label: dict(zip(columns, map(_cell, cells))) for label, *cells in rows}


def row(name: str, label: str) -> list[float]:
    """The numbers on the first line of a table that starts with ``label``
    (leading blanks aside), the label's own digits excluded."""
    line = next(line for line in lines(name) if line.lstrip().startswith(label))
    return numbers(line.lstrip()[len(label):])


def ratio(table: dict, system_a: str, system_b: str, x: str) -> float:
    """table[x][system_a] / table[x][system_b] for a :func:`grid`."""
    return table[x][system_a] / table[x][system_b]
