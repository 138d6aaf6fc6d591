"""Secure client-to-server envelopes.

Client traffic rides TLS in every evaluated configuration ("Secure
socket connections are applied to the client-to-replica communication
for both the baseline and Troxy", Section VI-C). A
:class:`SecureEnvelope` binds a message body to a TLS record sealed over
the body's digest: opening verifies the record (integrity + replay
sequence) *and* that the body matches the sealed digest, so a
man-in-the-middle replica altering either part is detected — without the
simulation having to serialize full payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.tls import TlsEndpoint, TlsError, TlsRecord


@dataclass(slots=True, init=False, unsafe_hash=True)
class SecureEnvelope:
    """A message body accompanied by its sealed digest."""

    record: TlsRecord
    body: object

    def __init__(self, record, body):
        self.record = record
        self.body = body

    @property
    def wire_size(self) -> int:
        return self.record.wire_size + self.body.wire_size  # type: ignore[attr-defined]


def seal_body(endpoint: TlsEndpoint, body) -> SecureEnvelope:
    """Seal ``body`` for the peer endpoint of ``endpoint``."""
    digest = body.digest() if hasattr(body, "digest") else body.auth_bytes()
    return SecureEnvelope(endpoint.seal(digest), body)


def open_body(endpoint: TlsEndpoint, envelope: SecureEnvelope):
    """Verify and unwrap an envelope; raises TlsError on any mismatch."""
    digest = endpoint.open(envelope.record)
    body = envelope.body
    expected = body.digest() if hasattr(body, "digest") else body.auth_bytes()
    if digest != expected:
        raise TlsError("envelope body does not match sealed digest")
    return body
