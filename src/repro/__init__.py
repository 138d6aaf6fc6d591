"""Troxy (DSN 2018) reproduction: transparent access to BFT systems.

Quick start::

    from repro import build_troxy
    from repro.apps.kvstore import KvStore, get, put

    cluster = build_troxy(seed=7, app_factory=KvStore)
    client = cluster.new_client()          # an unmodified legacy client

    def scenario():
        yield from client.invoke(put("k", b"v"))
        outcome = yield from client.invoke(get("k"))
        assert outcome.result.content == b"v"

    cluster.env.process(scenario())
    cluster.env.run(until=10.0)

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.sim`        deterministic discrete-event substrate
- :mod:`repro.crypto`     primitives, cost profiles, simulated TLS
- :mod:`repro.sgx`        simulated enclaves, counters, attestation
- :mod:`repro.hybster`    the hybrid BFT protocol + client-side library
- :mod:`repro.troxy`      the trusted proxy (the paper's contribution)
- :mod:`repro.baselines`  Prophecy middlebox, standalone server
- :mod:`repro.apps`       echo / KV store / HTTP page service
- :mod:`repro.workloads`  legacy clients and load generators
- :mod:`repro.analysis`   metrics and linearizability checking
- :mod:`repro.deploy`     the one deployment builder (four systems)
- :mod:`repro.bench`      paper-experiment runners and reports
"""

from .deploy import (
    build_baseline,
    build_prophecy,
    build_standalone,
    build_troxy,
)

__version__ = "1.0.0"

__all__ = [
    "build_baseline",
    "build_prophecy",
    "build_standalone",
    "build_troxy",
    "__version__",
]
