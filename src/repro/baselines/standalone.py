"""Standalone unreplicated server (the Jetty stand-in, Section VI-D).

Serves the same :class:`Application` over the same TLS envelopes as the
replicated deployments, with no fault tolerance whatsoever. It is the
latency floor the HTTP experiment compares against, and it implements
the same contact-point duck type as :class:`TroxyHost`, so the very same
:class:`LegacyClient` drives it — the transparency claim in code form.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.base import Application
from ..crypto.costs import RuntimeProfile, profile as cost_profile
from ..crypto.tls import TlsEndpoint, TlsError
from ..hybster.messages import Reply, Request
from ..hybster.secure import SecureEnvelope, open_body, seal_body
from ..sim.engine import Environment
from ..sim.network import Network, Node


@dataclass
class StandaloneStats:
    requests: int = 0
    invalid: int = 0


class StandaloneServer:
    """One ordinary (non-replicated) application server."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        node: Node,
        app: Application,
    ):
        self.env = env
        self.net = net
        self.node = node
        self.app = app
        self.profile: RuntimeProfile = cost_profile("java")
        self.stats = StandaloneStats()
        self._sessions: dict[str, TlsEndpoint] = {}
        self._stopped = False
        env.process(self._loop(), name=f"{node.name}:standalone")

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
        yield from self.node.compute(self.app.execution_cost(request.op))
        result = self.app.execute(request.op)
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
