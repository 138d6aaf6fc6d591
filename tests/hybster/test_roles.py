"""The replica's roles and its type-keyed dispatch (DESIGN.md D11)."""

import dataclasses
import inspect

from repro.apps.kvstore import KvStore, put
from repro.deploy import build_troxy
from repro.hybster import messages
from repro.hybster.messages import Batch, Checkpoint, Order, Reply, Request, Tagged
from repro.hybster.secure import SecureEnvelope

#: hybster.messages classes that are not addressed to a replica: a Reply
#: goes to a client or a Troxy, a Batch is an ORDER's payload, and Tagged
#: is the envelope the dispatch key looks through.
NOT_REPLICA_ADDRESSED = {Reply, Batch, Tagged}


def full_replica():
    site = build_troxy(seed=3, app_factory=KvStore, batching="adaptive", leases="on")
    return site.replicas[1]


def test_handler_table_is_total():
    """Every replica-addressed message class has exactly one handler; a
    class added to hybster.messages without one fails here."""
    declared = {
        cls for _name, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__ and dataclasses.is_dataclass(cls)
    } - NOT_REPLICA_ADDRESSED
    table = full_replica()._handlers
    keyed = [key[1] if isinstance(key, tuple) else key for key in table]
    assert len(keyed) == len(set(keyed))  # never both tagged and bare
    assert set(keyed) == declared | {SecureEnvelope}


def test_no_two_roles_claim_one_type():
    replica = full_replica()
    roles = (replica.viewchange, replica.checkpoint)
    claimed = [key for role in roles for key in role.handlers]
    assert len(claimed) == len(set(claimed))
    for role in roles:
        for key, handler in role.handlers.items():
            assert replica._handlers[key] == handler and handler.__self__ is role
    core = {key: h for key, h in replica._handlers.items() if key not in claimed}
    assert core and all(handler.__self__ is replica for handler in core.values())


def test_a_message_in_the_wrong_wire_shape_finds_no_handler():
    """A tagged ORDER, or a bare Checkpoint, is not what any handler
    expects: it is counted invalid at dispatch, like an unknown payload."""
    site = build_troxy(seed=3, app_factory=KvStore, batching="off", leases="off")
    leader, replica = site.replicas[0], site.replicas[1]
    request = Request("client-x", 1, put("k", b"v"), origin="client-machine-0")
    cert = leader.counters.certify_at(
        "order/0", 1, Order.content_digest(0, 1, request.digest())
    )
    order = Order(0, 1, request, cert, leader.replica_id)  # genuine...
    replica.dispatch(Tagged(order, leader.replica_id, b"\x00" * 32))  # ...but wrapped
    replica.dispatch(Checkpoint(4, b"\x00" * 32, leader.replica_id))  # never bare
    site.env.run(until=0.5)
    assert replica.stats.invalid_messages == 2 and replica.stats.commits_sent == 0
