"""Ledger probes on the network send and delivery paths.

The bus's ``net.send`` and ``net.deliver`` events cover every protocol
path — hybster ORDER/COMMIT traffic, troxy replies, client requests —
because all of them go through :meth:`repro.sim.network.Network.send`.
``net.send`` is emitted before any send filter runs, so send entries
record the digest of what the host's protocol stack actually emitted
(the certified history), whatever the fault plane rewrites afterwards;
``net.deliver`` says what physically arrived. The difference between
the two is exactly the tamper evidence the auditor needs.

Checkpointing is the one place the audit plane deliberately spends
simulated time: every ``checkpoint_interval`` entries on a replica's
ledger, a background process crosses the trusted boundary via the
``certify_ledger`` ecall (its cost is measured in
``benchmarks/results/fig5.txt``).
"""

from __future__ import annotations

from typing import Optional

from ...crypto.primitives import digest_of
from ...hybster.messages import Commit, Order, Reply, Request
from ...hybster.secure import SecureEnvelope
from .ledger import MessageLedger

#: certify_ledger argument/result sizes: 8-byte seq + 32-byte head in,
#: one CounterCertificate out.
CHECKPOINT_BYTES_IN = 40
CHECKPOINT_BYTES_OUT = 96


def _cert_tuple(cert) -> Optional[tuple]:
    if cert is None:
        return None
    return (cert.subsystem_id, cert.counter_name, cert.value, cert.digest, cert.tag)


def _generic_digest(payload) -> bytes:
    fn = getattr(payload, "digest", None)
    if callable(fn):
        return fn()
    fn = getattr(payload, "auth_bytes", None)
    if callable(fn):
        return digest_of(fn())
    # Unparseable blobs (e.g. injected Garbage) have no content identity
    # beyond their type and size; they can never match a certified send.
    return digest_of(
        b"opaque", type(payload).__name__.encode(),
        str(getattr(payload, "wire_size", 0)).encode(),
    )


def classify_payload(payload) -> tuple[str, bytes, Optional[tuple], Optional[tuple]]:
    """(kind, digest, ident, cert) of one wire payload.

    ``digest`` follows the same convention as TLS sealing
    (:func:`repro.hybster.secure.seal_body`): the body's ``digest()``
    when it has one, else a digest over ``auth_bytes()``. ``ident`` is
    the protocol-level identity used to pair a tampered delivery with
    the certified send it replaced; ``cert`` surfaces embedded counter
    certificates (ORDER/COMMIT) for equivocation checking.
    """
    if isinstance(payload, SecureEnvelope):
        body = payload.body
        kind = f"SecureEnvelope:{type(body).__name__}"
        if isinstance(body, Reply):
            return kind, digest_of(body.auth_bytes()), (
                "reply", body.client_id, body.request_id,
            ), None
        if isinstance(body, Request):
            return kind, body.digest(), (
                "request", body.client_id, body.request_id,
                "r" if body.op.is_read else "w",
            ), None
        return kind, _generic_digest(body), None, None
    if isinstance(payload, Order):
        return "Order", payload.digest(), (
            "order", payload.view, payload.seq,
        ), _cert_tuple(payload.cert)
    if isinstance(payload, Commit):
        return "Commit", payload.digest(), (
            "commit", payload.view, payload.seq, payload.sender,
        ), _cert_tuple(payload.cert)
    return type(payload).__name__, _generic_digest(payload), None, None


class LedgerProbes:
    """Attach per-node message ledgers to a running cluster.

    Standalone by design (not an ObsPlane): benchmarks attach the
    probes alone to measure their cost, while :class:`.plane.AuditPlane`
    composes them with the health plane's detectors.
    """

    def __init__(self, registry=None, checkpoint_interval: int = 64):
        self.registry = registry
        self.checkpoint_interval = checkpoint_interval
        self.ledgers: dict[str, MessageLedger] = {}
        self.cluster = None
        self._env = None
        self._replicas: dict[str, object] = {}
        self._entry_counters: dict[tuple[str, str], object] = {}
        self._checkpoint_counters: dict[str, object] = {}

    def attach(self, cluster) -> "LedgerProbes":
        if self.cluster is cluster:
            return self
        if self.cluster is not None:
            raise RuntimeError("LedgerProbes is already attached to a cluster")
        self.cluster = cluster
        self._env = cluster.env
        for replica in cluster.replicas:
            self._replicas[replica.node.name] = replica
        cluster.probe.subscribe(self)
        return self

    def detach(self) -> None:
        if self.cluster is None:
            return
        self.cluster.probe.unsubscribe(self)
        self.cluster = None
        self._replicas = {}

    # -- probe bodies --------------------------------------------------------

    def _ledger(self, node: str) -> MessageLedger:
        ledger = self.ledgers.get(node)
        if ledger is None:
            ledger = self.ledgers[node] = MessageLedger(node)
        return ledger

    def _record(self, node: str, direction: str, peer: str, payload) -> None:
        kind, digest, ident, cert = classify_payload(payload)
        ledger = self._ledger(node)
        ledger.append(self._env.now, direction, peer, kind, digest, ident, cert)
        if self.registry is not None:
            counter = self._entry_counters.get((node, direction))
            if counter is None:
                counter = self._entry_counters[(node, direction)] = self.registry.counter(
                    "audit_ledger_entries_total", node=node, direction=direction,
                )
            counter.inc()
        replica = self._replicas.get(node)
        if replica is not None and len(ledger.entries) % self.checkpoint_interval == 0:
            self._request_checkpoint(replica, ledger)

    def event(self, _t, kind: str, node, subject, attrs) -> None:
        """Bus subscriber: an offered send is a certified send, what
        lands in an inbox is a certified receive."""
        if kind == "net.send":
            self._record(node, "send", attrs["dst"], subject)
        elif kind == "net.deliver":
            self._record(subject.dst, "recv", subject.src, subject.payload)

    # -- checkpointing -------------------------------------------------------

    def _request_checkpoint(self, replica, ledger: MessageLedger) -> None:
        ledger.checkpoints_requested += 1
        seq = ledger.checkpoints_requested
        # Head and entry count are captured synchronously; the ecall
        # only certifies them a boundary-crossing later.
        self._env.process(
            self._certify(replica, ledger, seq, len(ledger.entries), ledger.head),
            name=f"audit:checkpoint-{ledger.node_id}-{seq}",
        )

    def _certify(self, replica, ledger: MessageLedger, seq: int, entries: int,
                 head: bytes):
        cert = yield from replica.boundary.ecall(
            "certify_ledger", seq, head,
            bytes_in=CHECKPOINT_BYTES_IN, bytes_out=CHECKPOINT_BYTES_OUT,
        )
        ledger.add_checkpoint(seq, entries, head, cert)
        if self.registry is not None:
            counter = self._checkpoint_counters.get(ledger.node_id)
            if counter is None:
                counter = self._checkpoint_counters[ledger.node_id] = self.registry.counter(
                    "audit_checkpoints_total", node=ledger.node_id,
                )
            counter.inc()
