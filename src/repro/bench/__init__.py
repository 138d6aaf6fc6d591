"""Benchmark harness: experiment runners and reporting."""

from .experiments import (
    Point,
    TableOneRow,
    fig6_ordered_writes_local,
    fig7_ordered_writes_wan,
    fig8_reads_local,
    fig9_reads_wan,
    fig10_write_contention,
    fig11_http_latency,
    table1_rows,
)
from .report import format_latency_series, format_throughput_series, ratio, save_and_print

__all__ = [
    "Point",
    "TableOneRow",
    "fig10_write_contention",
    "fig11_http_latency",
    "fig6_ordered_writes_local",
    "fig7_ordered_writes_wan",
    "fig8_reads_local",
    "fig9_reads_wan",
    "format_latency_series",
    "format_throughput_series",
    "ratio",
    "save_and_print",
    "table1_rows",
]
