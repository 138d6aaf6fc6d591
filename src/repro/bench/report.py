"""Formatting of experiment results into paper-style tables."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .experiments import Point

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def _series(title: str, points: Iterable[Point], x_label: str, width: int, cell) -> str:
    """One row per x value, one ``width``-wide column per system, both
    in order of first appearance; a missing cell is blank."""
    points = list(points)
    systems = list(dict.fromkeys(p.system for p in points))
    xs = list(dict.fromkeys(p.x for p in points))
    by_key = {(p.system, p.x): p for p in points}
    lines = [title, "=" * len(title)]
    header = f"{x_label:>10} | " + " | ".join(f"{s:>{width}}" for s in systems)
    lines.append(header)
    lines.append("-" * len(header))
    for x in xs:
        cells = [
            cell(by_key[system, x]) if (system, x) in by_key else " " * width
            for system in systems
        ]
        lines.append(f"{str(x):>10} | " + " | ".join(cells))
    return "\n".join(lines)


def format_throughput_series(title: str, points: Iterable[Point], x_label: str = "size") -> str:
    """Render throughput points as a series table (one row per x value)."""
    return _series(title, points, x_label, 18, lambda p: f"{p.throughput:>12.0f} op/s")


def format_latency_series(title: str, points: Iterable[Point], x_label: str = "net") -> str:
    """Render mean latencies as a series table (one row per x value)."""
    return _series(title, points, x_label, 16, lambda p: f"{p.latency_ms:>12.2f} ms")


def save_and_print(name: str, text: str) -> None:
    """Print the table and persist it under benchmarks/results/."""
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
