"""Simulated TLS sessions (the TaLoS substitute).

What Troxy needs from TLS, and what this module provides:

* a handshake that costs round-trips and CPU, after which both endpoints
  hold a session key;
* per-record integrity — every record carries a real HMAC tag over
  (sequence number, payload), so any modification by the untrusted host
  is detected by :meth:`TlsEndpoint.open`;
* replay protection — record sequence numbers must arrive strictly
  in order; "each endpoint will never accept the same chunk of encrypted
  data twice" (Section III-D).

Payload bytes are carried in the clear inside :class:`TlsRecord` —
simulation code treats ``ciphertext`` as opaque, and confidentiality
against in-simulation adversaries is a modelling convention, not a
cryptographic property. Integrity and replay detection *are* real.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .primitives import MAC_SIZE, MacKey, derive_key

TLS_RECORD_OVERHEAD = 29  # bytes: header(5) + explicit nonce(8) + tag(16)
HANDSHAKE_FLIGHTS = 4  # ClientHello, ServerHello..Done, ClientKex..Fin, Fin
HANDSHAKE_BYTES = 2048  # total handshake traffic, both directions
HANDSHAKE_CPU = 250e-6  # asymmetric crypto per endpoint (ECDHE + cert)

_session_ids = itertools.count(1)


class TlsError(Exception):
    """Integrity or replay failure on a TLS record."""


@dataclass(slots=True, init=False, unsafe_hash=True)
class TlsRecord:
    """One sealed record on the wire."""

    session_id: int
    seq: int
    ciphertext: bytes
    tag: bytes
    wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(self, session_id, seq, ciphertext, tag):
        self.session_id = session_id
        self.seq = seq
        self.ciphertext = ciphertext
        self.tag = tag
        self.wire_size = len(ciphertext) + TLS_RECORD_OVERHEAD


class TlsEndpoint:
    """One side of an established TLS session."""

    def __init__(self, session_id: int, send_key: MacKey, recv_key: MacKey):
        self.session_id = session_id
        self._send_key = send_key
        self._recv_key = recv_key
        self._send_seq = 0
        self._recv_seq = 0

    def _auth_input(self, seq: int, payload: bytes) -> bytes:
        return seq.to_bytes(8, "big") + payload

    def seal(self, payload: bytes) -> TlsRecord:
        """Produce the next outgoing record for ``payload``."""
        seq = self._send_seq
        self._send_seq += 1
        tag = self._send_key.sign(self._auth_input(seq, payload))
        return TlsRecord(self.session_id, seq, payload, tag)

    def open(self, record: TlsRecord) -> bytes:
        """Verify and accept an incoming record; raises TlsError on attack.

        Rejects wrong-session records, bad tags, replays, and reordering
        (TLS is stream-oriented: a gap means truncation/injection).
        """
        if record.session_id != self.session_id:
            raise TlsError(
                f"record for session {record.session_id}, expected {self.session_id}"
            )
        if record.seq != self._recv_seq:
            raise TlsError(
                f"record seq {record.seq}, expected {self._recv_seq} (replay or gap)"
            )
        if not self._recv_key.verify(self._auth_input(record.seq, record.ciphertext), record.tag):
            raise TlsError("record integrity check failed")
        self._recv_seq += 1
        return record.ciphertext


@dataclass(frozen=True)
class TlsSession:
    """Both endpoints of an established session (returned by handshake)."""

    session_id: int
    client: TlsEndpoint
    server: TlsEndpoint


def establish_session(master_secret: bytes, client_name: str, server_name: str) -> TlsSession:
    """Create a fresh session's paired endpoints.

    The *protocol-level* handshake (flights on the wire, CPU for the
    asymmetric operations) is modelled by the caller using
    ``HANDSHAKE_FLIGHTS``/``HANDSHAKE_BYTES``/``HANDSHAKE_CPU``; this
    function performs the key derivation.
    """
    session_id = next(_session_ids)
    base = derive_key(master_secret, "tls", client_name, server_name, str(session_id))
    c2s = MacKey(f"tls:{session_id}:c2s", derive_key(base, "c2s"))
    s2c = MacKey(f"tls:{session_id}:s2c", derive_key(base, "s2c"))
    client = TlsEndpoint(session_id, send_key=c2s, recv_key=s2c)
    server = TlsEndpoint(session_id, send_key=s2c, recv_key=c2s)
    return TlsSession(session_id, client, server)


assert MAC_SIZE == 32  # tags in TlsRecord are full HMAC-SHA256 outputs
