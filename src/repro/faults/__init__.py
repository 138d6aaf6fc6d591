"""Declarative fault injection and chaos campaigns for the simulation.

The subsystem has four layers:

* :mod:`repro.faults.model` — fault types (what goes wrong), each of
  which stages itself and names its own audit blame;
* :mod:`repro.faults.schedule` — timed schedules and the named scenario
  catalogue (when it goes wrong);
* :mod:`repro.faults.injector` — the :class:`FaultPlane`, the state the
  faults share on a live cluster: lookups, RNG, timeline, the one send
  filter;
* :mod:`repro.faults.invariants` / :mod:`repro.faults.campaign` — what
  must still hold afterwards, and the deterministic runner that sweeps
  scenarios × seeds (``python -m repro.faults``).
"""

from .injector import FaultPlane
from .invariants import (
    InvariantResult,
    check_counter_monotonicity,
    check_linearizability,
    check_liveness,
)
from .model import (
    EnclaveReboot,
    Fault,
    HostTamper,
    MessageCorrupt,
    MessageDelay,
    MessageLoss,
    NetworkPartition,
    ReplicaCrash,
    ReplicaRestart,
    WriteContentionAttack,
)
from .schedule import (
    SCENARIOS,
    FaultEvent,
    Scenario,
    Schedule,
    WorkloadSpec,
    get_scenario,
    scenario_names,
)

__all__ = [
    "EnclaveReboot",
    "Fault",
    "FaultEvent",
    "FaultPlane",
    "HostTamper",
    "InvariantResult",
    "MessageCorrupt",
    "MessageDelay",
    "MessageLoss",
    "NetworkPartition",
    "ReplicaCrash",
    "ReplicaRestart",
    "SCENARIOS",
    "Scenario",
    "Schedule",
    "WorkloadSpec",
    "WriteContentionAttack",
    "check_counter_monotonicity",
    "check_linearizability",
    "check_liveness",
    "get_scenario",
    "scenario_names",
]
