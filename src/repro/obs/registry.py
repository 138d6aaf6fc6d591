"""Registry of labeled counters and gauges.

The registry is the single sink every layer emits into. Instruments are
identified by (name, sorted label set); asking for the same identity
twice returns the same instrument, so probes in different subsystems can
share series without coordination. Durations are not instruments: they
are spans (:mod:`repro.obs.spans`), and their percentiles come from
:func:`repro.analysis.metrics.percentile` over those spans. Everything
is plain Python state — no wall-clock timestamps, no background threads
— so a registry filled by a deterministic simulation run exports
byte-identically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

Number = Union[int, float]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class RegistryError(Exception):
    """Conflicting or malformed instrument registration."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise RegistryError(f"invalid metric name: {name!r}")
    return name


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise RegistryError(f"invalid label name: {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """Freely settable value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


@dataclass
class _Family:
    """All instruments sharing one metric name."""

    name: str
    kind: str
    instruments: dict = field(default_factory=dict)


class Registry:
    """Get-or-create store of instruments, keyed by name + labels."""

    def __init__(self):
        self._families: dict[str, _Family] = {}

    # -- instrument factories -------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, labels, Gauge)

    def _get(self, name: str, labels: dict, factory):
        _check_name(name)
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name=name, kind=factory.kind)
        elif family.kind != factory.kind:
            raise RegistryError(
                f"metric {name} already registered as {family.kind}, not {factory.kind}"
            )
        key = _label_key(labels)
        instrument = family.instruments.get(key)
        if instrument is None:
            instrument = family.instruments[key] = factory(name, key)
        return instrument

    # -- read access ------------------------------------------------------------

    def families(self) -> Iterator[_Family]:
        """Families sorted by name (deterministic export order)."""
        for name in sorted(self._families):
            yield self._families[name]

    def value(self, name: str, **labels) -> Number:
        """Current value of a counter/gauge; 0 when never touched."""
        family = self._families.get(name)
        if family is None:
            return 0
        instrument = family.instruments.get(_label_key(labels))
        return 0 if instrument is None else instrument.value

    def total(self, name: str, **labels) -> Number:
        """Sum of a family's values across series matching ``labels``.

        A series matches when every given (label, value) pair appears in
        its label set; extra labels on the series are ignored.
        """
        family = self._families.get(name)
        if family is None:
            return 0
        want = set(_label_key(labels))
        return sum(
            instrument.value
            for key, instrument in family.instruments.items()
            if want <= set(key)
        )
