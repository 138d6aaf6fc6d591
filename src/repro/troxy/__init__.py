"""Troxy: the trusted proxy that makes BFT transparent to legacy clients.

* :mod:`repro.troxy.core` — trusted logic (runs inside the enclave):
  sessions, client intake, the voter, reply authentication.
* :mod:`repro.troxy.prober` — its fast-read role (Fig. 4);
  :mod:`repro.troxy.lease` holds its lease-holder role and
  :mod:`repro.shard.front` its shard front (DESIGN.md D13).
* :mod:`repro.troxy.host` — untrusted message pump around it.
* :mod:`repro.troxy.cache` — the managed fast-read cache.
* :mod:`repro.troxy.monitor` — conflict-rate monitor + adaptive switch.
* :mod:`repro.troxy.messages` — Troxy-to-Troxy cache protocol.
"""

from .cache import CacheEntry, CacheStats, FastReadCache
from .core import Action, TroxyCore, TroxyStats
from .host import TroxyHost
from .lease import LeaseHolder
from .messages import CacheEntryReply, CacheQuery
from .monitor import ConflictMonitor, MonitorStats
from .prober import FastReadProber

#: Every entry point a Troxy enclave can have, by role; a deployment
#: registers those of the roles it has (6 to 13 names, DESIGN.md D13).
#: The shard front's are spelled out because this package does not
#: import repro.shard (tests/troxy/test_roles.py holds them equal).
_SHARD_FRONT_ECALLS = ("handle_forwarded_request", "handle_shard_fast_reply")
TROXY_ECALLS = (
    TroxyCore.ecalls + FastReadProber.ecalls + LeaseHolder.ecalls + _SHARD_FRONT_ECALLS
)

__all__ = [
    "Action",
    "CacheEntry",
    "CacheEntryReply",
    "CacheQuery",
    "CacheStats",
    "ConflictMonitor",
    "FastReadCache",
    "FastReadProber",
    "LeaseHolder",
    "MonitorStats",
    "TROXY_ECALLS",
    "TroxyCore",
    "TroxyHost",
    "TroxyStats",
]
