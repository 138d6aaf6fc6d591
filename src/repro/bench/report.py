"""Formatting of experiment results into paper-style tables."""

from __future__ import annotations

import json
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


def point_to_cell(point: Point) -> dict:
    """One benchmark cell as a JSON-serializable dict.

    Simulated results (throughput, latencies) are deterministic for a
    given seed; ``wall_s`` is the only host-dependent field, kept apart
    under ``sim`` next to the deterministic event counters so regression
    tooling can budget on counts and merely *report* wall-clock.
    """
    summary = point.summary
    extra = dict(point.extra or {})
    sim = extra.pop("sim", None)
    cell = {
        "figure": point.figure,
        "system": point.system,
        "x": point.x,
        "count": summary.count,
        "throughput_ops": summary.throughput,
        "mean_latency_s": summary.mean_latency,
        "p50_latency_s": summary.p50,
        "p95_latency_s": summary.p95,
        "p99_latency_s": summary.p99,
        "conflict_rate": summary.conflict_rate,
    }
    if extra:
        cell["extra"] = extra
    if sim is not None:
        cell["sim"] = {
            "wall_s": sim["wall_s"],
            "steps": sim["steps"],
            "scheduled_events": sim["scheduled_events"],
        }
    return cell


def save_bench_json(name: str, points: Iterable[Point], out_dir) -> Path:
    """Write ``BENCH_<name>.json`` with one entry per measured cell."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    payload = {"bench": name, "cells": [point_to_cell(p) for p in points]}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
