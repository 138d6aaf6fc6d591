"""The feature lattice, by name (DESIGN.md D15).

A deployment is a function of its arguments, so a test that should hold
under every feature set says so: it takes ``features`` and passes it to
the builder as explicit ``batching=`` / ``leases=`` keywords. All-off is
the default and runs in tier-1 under the test's own name; the other sets
are the ``slow`` reruns of :func:`rerun_under_the_other_feature_sets`,
which CI's ``features`` job selects with ``-m "slow or not slow"``.
"""

import inspect
import itertools

import pytest

#: Every (batching, leases) pair a Troxy deployment is built with.
FEATURE_SETS = [
    dict(batching=batching, leases=leases)
    for batching, leases in itertools.product(("off", "adaptive"), ("off", "on"))
]
ALL_OFF = FEATURE_SETS[0]


def feature_id(features: dict) -> str:
    return "-".join(map(str, features.values()))


def rerun_under_the_other_feature_sets(namespace: dict):
    """One slow test that calls every ``test_*(features=ALL_OFF)`` function
    of ``namespace`` (a test module's globals) under each set but all-off."""
    cases = [
        fn for name, fn in namespace.items()
        if name.startswith("test_") and "features" in inspect.signature(fn).parameters
    ]

    @pytest.mark.slow
    @pytest.mark.parametrize("features", FEATURE_SETS[1:], ids=feature_id)
    @pytest.mark.parametrize("case", cases, ids=lambda fn: fn.__name__)
    def test_under_feature_set(case, features):
        case(features)

    return test_under_feature_set
