"""Hybster: a hybrid-fault-model BFT protocol (2f+1 replicas).

The replication substrate Troxy extends. Leader-based ordering with
trusted-counter-certified ORDER/COMMIT messages, checkpoints, view
change, and the traditional client-side library (connection handling,
request distribution, reply voting) that the baseline configuration
uses and that Troxy makes obsolete.
"""

from .client import BftClient, ClientMachine, ClientStats, InvokeResult
from .config import ClusterConfig
from .messages import (
    Checkpoint,
    Commit,
    Forward,
    NewView,
    Order,
    Reply,
    Request,
    Tagged,
    ViewChange,
    noop_request,
)
from .replica import LogEntry, Replica, ReplicaStats
from .secure import SecureEnvelope, open_body, seal_body

__all__ = [
    "BftClient",
    "Checkpoint",
    "ClientMachine",
    "ClientStats",
    "ClusterConfig",
    "Commit",
    "Forward",
    "InvokeResult",
    "LogEntry",
    "NewView",
    "Order",
    "Reply",
    "Replica",
    "ReplicaStats",
    "Request",
    "SecureEnvelope",
    "Tagged",
    "ViewChange",
    "noop_request",
    "open_body",
    "seal_body",
]
