"""What the health and audit tables mean, not only their bytes.

``python -m repro.bench health`` and ``audit`` record one row per
(scenario, seed[, deployment]) run. CI proves the committed tables are
what the code produces; these tests prove that what it produces is a
pass: every injected fault diagnosed or localized, and the fault-free
runs silent.
"""

import re

from repro.obs.health import default_detectors

from .tables import lines


def column(name: str, index: int) -> tuple[list[str], str]:
    """(one column between the two rules, the summary line)."""
    text = lines(name)
    first, last = [i for i, line in enumerate(text) if line and set(line) == {"-"}]
    return [line.split()[index] for line in text[first + 1:last]], text[last + 1]


def test_every_health_row_is_detected_or_quiet():
    verdicts, summary = column("health_detection", -1)
    assert verdicts and set(verdicts) <= {"DETECTED", "QUIET"}, set(verdicts)
    assert re.fullmatch(
        r"(\d+)/\1 scenarios diagnosed, 0 false positive\(s\)", summary
    ), summary


def test_every_health_kind_is_some_scenarios_first_diagnosis():
    # A detector pays its rent by being the first event of at least one
    # catalogued fault (DESIGN.md D27); one that never is, goes.
    first_events, _ = column("health_detection", -2)
    kinds = {d.name for d in default_detectors()} | {"slo_violation"}
    assert kinds == set(first_events) - {"-"}


def test_every_audit_row_is_localized_or_quiet():
    verdicts, summary = column("audit_blame", -1)
    assert verdicts and set(verdicts) <= {"LOCALIZED", "QUIET"}, set(verdicts)
    assert re.fullmatch(
        r"(\d+)/\1 attributable faults localized, 0 wrongly blamed", summary
    ), summary
