"""Unit tests for cluster configuration and secure envelopes."""

import dataclasses

import pytest

from repro.crypto import TlsError, establish_session
from repro.hybster.config import ClusterConfig
from repro.hybster.messages import Request
from repro.hybster.secure import open_body, seal_body
from repro.apps.base import Operation, OpKind, Payload


def test_config_replica_counts():
    config = ClusterConfig(f=1)
    assert config.n == 3
    assert config.commit_quorum == 2
    assert config.reply_quorum == 2
    config2 = ClusterConfig(f=2)
    assert config2.n == 5
    assert config2.commit_quorum == 3


def test_config_leader_rotation():
    config = ClusterConfig(f=1)
    assert config.leader_of(0) == "replica-0"
    assert config.leader_of(1) == "replica-1"
    assert config.leader_of(3) == "replica-0"


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(f=0)
    with pytest.raises(ValueError):
        ClusterConfig(checkpoint_interval=0)


def make_request():
    op = Operation(OpKind.WRITE, "set", "k", Payload(b"v"))
    return Request("client-1", 1, op, origin="replica-0")


def test_envelope_roundtrip():
    session = establish_session(b"secret-material!", "client-1", "replica-0")
    request = make_request()
    envelope = seal_body(session.client, request)
    assert open_body(session.server, envelope) is request


def test_envelope_body_swap_detected():
    """A man in the middle replacing the body is caught even though the
    TLS record itself is untouched."""
    session = establish_session(b"secret-material!", "client-1", "replica-0")
    request = make_request()
    envelope = seal_body(session.client, request)
    other_op = Operation(OpKind.WRITE, "set", "k", Payload(b"EVIL"))
    swapped = dataclasses.replace(
        envelope, body=dataclasses.replace(request, op=other_op)
    )
    with pytest.raises(TlsError, match="does not match sealed digest"):
        open_body(session.server, swapped)


def test_envelope_wire_size():
    session = establish_session(b"secret-material!", "client-1", "replica-0")
    request = make_request()
    envelope = seal_body(session.client, request)
    assert envelope.wire_size > request.wire_size
