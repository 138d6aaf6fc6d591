"""Prophecy-style middlebox (the Section VI-D comparator).

Prophecy [5] interposes a trusted *middlebox* between clients and a BFT
service. It keeps a sketch cache mapping read requests to (reply digest,
reply body). A cached GET is validated against **one** randomly chosen
replica's unordered answer — cheap, but the result only reflects the
state of the latest *read*: Prophecy trades consistency for throughput
and may return stale data (Table I: weak consistency). Cache misses and
writes go through the full BFT invocation, whose result refreshes the
sketch.

Differences kept from the paper: the middlebox is a full commodity
machine (large TCB: OS + network stack + proxy), not an enclave, and it
terminates the clients' TLS itself. The original runs over PBFT with
3f+1 replicas; this reproduction drives our Hybster substrate instead
and reports Prophecy's native 3f+1 requirement in Table I (documented
substitution — the middlebox mechanics, which are what the latency
experiment measures, are faithful).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..apps.base import Operation, Payload
from ..crypto.costs import RuntimeProfile, profile as cost_profile
from ..crypto.keys import KeyRing
from ..crypto.tls import TlsEndpoint, TlsError
from ..hybster.client import BftClient, ClientMachine
from ..hybster.config import ClusterConfig
from ..hybster.messages import Reply, Request
from ..hybster.secure import SecureEnvelope, open_body, seal_body
from ..sim.engine import Environment
from ..sim.network import Network, Node

#: A validation probe unanswered for this long falls back to a full read.
VALIDATION_TIMEOUT = 1.0


@dataclass
class SketchEntry:
    reply_digest: bytes
    result: Payload


@dataclass
class ProphecyStats:
    requests: int = 0
    sketch_hits: int = 0
    sketch_validation_failures: int = 0
    full_invocations: int = 0
    invalid: int = 0


class ProphecyMiddlebox:
    """Trusted middlebox with a sketch cache in front of the BFT service."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        node: Node,
        config: ClusterConfig,
        keyring: KeyRing,
        replicas,
        rng,
    ):
        self.env = env
        self.net = net
        self.node = node
        self.config = config
        self.keyring = keyring
        self.rng = rng
        self.profile: RuntimeProfile = cost_profile("java")
        self.stats = ProphecyStats()
        self._sessions: dict[str, TlsEndpoint] = {}
        self._sketch: dict[bytes, SketchEntry] = {}
        self._stopped = False
        # The middlebox embeds the ordinary client-side BFT library for
        # ordered operations and single-replica validations.
        self._machine = ClientMachine(env, net, node, owns_inbox=False)
        self._bft = BftClient(
            self._machine,
            client_id=f"prophecy@{node.name}",
            config=config,
            keyring=keyring,
            read_optimization=True,
        )
        self._bft.connect(replicas)
        env.process(self._loop(), name=f"{node.name}:prophecy")

    # Duck-type compatibility with TroxyHost for LegacyClient.
    @property
    def replica_id(self) -> str:
        return self.node.name

    def stop(self) -> None:
        self._stopped = True
        self.node.crash()

    def install_client_session(self, client_id: str, endpoint: TlsEndpoint):
        self._sessions[client_id] = endpoint
        return
        yield  # pragma: no cover - generator marker

    def _loop(self):
        while True:
            msg = yield self.node.inbox.get()
            if self._stopped:
                continue
            payload = msg.payload
            if isinstance(payload, SecureEnvelope) and isinstance(payload.body, Request):
                self.env.process(self._serve(payload, msg.src))
            else:
                # Replies for the embedded BFT client.
                self._machine.deliver(msg)

    def _serve(self, envelope: SecureEnvelope, src: str):
        request = envelope.body
        endpoint = self._sessions.get(request.client_id)
        if endpoint is None:
            self.stats.invalid += 1
            return
        yield from self.node.compute(self.profile.aead_cost(envelope.wire_size))
        try:
            open_body(endpoint, envelope)
        except TlsError:
            self.stats.invalid += 1
            return
        self.stats.requests += 1
        result = yield from self._execute(request.op)
        reply = Reply(
            replica_id=self.node.name,
            client_id=request.client_id,
            request_id=request.request_id,
            result=result,
            request_digest=request.digest(),
        )
        yield from self.node.compute(self.profile.aead_cost(reply.wire_size))
        self.net.send(
            self.node.name, src, seal_body(endpoint, reply), stream=request.client_id
        )

    def _execute(self, op: Operation):
        if op.is_read:
            cached = self._sketch.get(op.digest())
            if cached is not None:
                validated = yield from self._validate(op, cached)
                if validated is not None:
                    self.stats.sketch_hits += 1
                    return validated
                self.stats.sketch_validation_failures += 1
        self.stats.full_invocations += 1
        outcome = yield from self._bft.invoke(op)
        if op.is_read:
            self._sketch[op.digest()] = SketchEntry(
                outcome.result.digest(), outcome.result
            )
        return outcome.result

    def _validate(self, op: Operation, cached: SketchEntry) -> Optional[Payload]:
        """Ask ONE random replica; accept the cached body if digests match.

        This single-replica check is Prophecy's whole consistency story:
        if the chosen replica is stale (or lying consistently with the
        sketch), a stale result reaches the client.
        """
        reply = yield from self._bft.query_one(
            op, self.rng.choice(self.config.replica_ids), VALIDATION_TIMEOUT
        )
        if reply is None:
            return None
        if reply.result_digest() != cached.reply_digest:
            # The replica moved on: refresh the sketch via a full read.
            return None
        return cached.result
