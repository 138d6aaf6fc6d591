"""What the health and audit tables mean, not only their bytes.

``python -m repro.bench health`` and ``audit`` record one row per
(scenario, seed[, deployment]) run. CI proves the committed tables are
what the code produces; these tests prove that what it produces is a
pass: every injected fault diagnosed or localized, and the fault-free
runs silent.
"""

import re

from .tables import lines


def verdicts(name: str) -> tuple[list[str], str]:
    """(the verdict column between the two rules, the summary line)."""
    text = lines(name)
    first, last = [i for i, line in enumerate(text) if line and set(line) == {"-"}]
    return [line.split()[-1] for line in text[first + 1:last]], text[last + 1]


def test_every_health_row_is_detected_or_quiet():
    column, summary = verdicts("health_detection")
    assert column and set(column) <= {"DETECTED", "QUIET"}, set(column)
    assert re.fullmatch(
        r"(\d+)/\1 scenarios diagnosed, 0 false positive\(s\)", summary
    ), summary


def test_every_audit_row_is_localized_or_quiet():
    column, summary = verdicts("audit_blame")
    assert column and set(column) <= {"LOCALIZED", "QUIET"}, set(column)
    assert re.fullmatch(
        r"(\d+)/\1 attributable faults localized, 0 wrongly blamed", summary
    ), summary
