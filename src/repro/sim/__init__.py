"""Deterministic discrete-event simulation substrate.

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AnyOf` — the engine.
* :class:`Store`, :class:`Resource` — waitable queues and counted resources.
* :class:`Network`, :class:`Node`, :class:`NicConfig`, latency models —
  the cluster fabric.
* :class:`RngTree` — reproducible per-component randomness.
* :class:`Probe` — the bus every layer reports on; :class:`Tracer`, the
  trace log, is one of its subscribers.
"""

from .engine import (
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .network import (
    GBPS,
    ConstantLatency,
    LatencyModel,
    Message,
    Network,
    NicConfig,
    Node,
    NormalLatency,
    UniformLatency,
)
from .probe import Probe
from .resources import Resource, ResourceRequest, Store, StoreGet
from .rng import RngTree
from .trace import TraceRecord, Tracer

__all__ = [
    "AnyOf",
    "ConstantLatency",
    "Environment",
    "Event",
    "GBPS",
    "LatencyModel",
    "Message",
    "Network",
    "NicConfig",
    "Node",
    "NormalLatency",
    "Probe",
    "Process",
    "Resource",
    "ResourceRequest",
    "RngTree",
    "SimulationError",
    "Store",
    "StoreGet",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "UniformLatency",
]
