"""Measurement and verification utilities."""

from .history import HistoryRecorder
from .linearizability import OpRecord, check_linearizable, find_violation
from .metrics import Collector, Sample, Summary, percentile

__all__ = [
    "Collector",
    "HistoryRecorder",
    "OpRecord",
    "Sample",
    "Summary",
    "check_linearizable",
    "find_violation",
    "percentile",
]
