"""repro.obs.health — online BFT health diagnosis on the obs plane.

Layers on top of :mod:`repro.obs`:

- :mod:`~repro.obs.health.slo` — declarative SLO specs over sliding
  sim-time windows (latency quantiles, fast-read hit-rate floor,
  progress);
- :mod:`~repro.obs.health.detectors` — BFT-aware anomaly detectors
  (replica divergence, mode switches, view changes, enclave reboots,
  client retries, shard imbalance, migration stalls), each kept only
  while it is some fault scenario's first diagnosis;
- :mod:`~repro.obs.health.recorder` — bounded flight recorder dumping
  deterministic forensic bundles when detectors fire;
- :mod:`~repro.obs.health.plane` — the :class:`HealthPlane` tying them
  together with zero perturbation of the simulation;
- :mod:`~repro.obs.health.harness` — detection-latency scoring of the
  :mod:`repro.faults` scenario catalogue.
"""

from .detectors import (
    ClientRetrySpikeDetector,
    Detector,
    EnclaveRebootDetector,
    Finding,
    MigrationStallDetector,
    ModeSwitchDetector,
    ReplicaDivergenceDetector,
    ShardImbalanceDetector,
    ViewChangeDetector,
    default_detectors,
    shard_of_node,
)
from .events import Evidence, HealthEvent
from .harness import EXPECTED, detection_report, render_table, run_detection
from .plane import HealthPlane, write_health_report
from .recorder import FlightRecorder
from .slo import SloSpec, SloTracker, default_slos
from .window import NodeDelta, WindowSnapshot

__all__ = [
    "ClientRetrySpikeDetector",
    "Detector",
    "EnclaveRebootDetector",
    "EXPECTED",
    "Evidence",
    "Finding",
    "FlightRecorder",
    "HealthEvent",
    "HealthPlane",
    "MigrationStallDetector",
    "ModeSwitchDetector",
    "NodeDelta",
    "ReplicaDivergenceDetector",
    "ShardImbalanceDetector",
    "SloSpec",
    "SloTracker",
    "ViewChangeDetector",
    "WindowSnapshot",
    "default_detectors",
    "default_slos",
    "detection_report",
    "render_table",
    "run_detection",
    "write_health_report",
]
