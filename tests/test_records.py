"""The per-operation records: what ``frozen=True`` used to promise.

Every message, ``Action`` and certificate built per operation is a
slotted dataclass with a hand-written ``__init__`` (DESIGN.md D28). None
of them is frozen any more, so two things ``frozen`` gave for free are
checked here instead:

* **Write-once.** A record's fields are written by its ``__init__`` and
  never again; a digest memo goes from ``None`` to its value once. A
  write after that would leave a memoised digest or a signature stale
  (a ``Request`` whose ``op`` changes after ``digest()`` keeps the old
  digest). :func:`write_once` installs a guard that raises on such a
  write, and the ledger's four traffic shapes, every feature set and a
  forging fault run under it.
* **The dataclass surface.** ``repr``, ``==``, ``hash``, ``fields()``
  and ``replace`` behave as they did on the frozen (or plain) dataclass
  each class was: the wire traces and every dict keyed by a record
  depend on them.
"""

import contextlib
import dataclasses
import random

import pytest

from repro.analysis.linearizability import OpRecord
from repro.analysis.metrics import Sample
from repro.apps.base import Operation, OpKind, Payload
from repro.bench.experiments import _run_system, mixed_source, read_source, write_source
from repro.crypto.tls import TlsRecord
from repro.faults.campaign import run_scenario
from repro.faults.schedule import get_scenario
from repro.hybster.client import InvokeResult
from repro.hybster.messages import (
    Batch,
    Checkpoint,
    Commit,
    Forward,
    Order,
    Reply,
    Request,
    Tagged,
)
from repro.hybster.replica import LogEntry
from repro.hybster.secure import SecureEnvelope
from repro.sgx.counters import CounterCertificate
from repro.shard.router import RouteDecision
from repro.sim.network import Message
from repro.troxy.cache import CacheEntry
from repro.troxy.core import Action, Waiter, _Pending
from repro.troxy.messages import BatchedReply, CacheEntryReply, CacheQuery, ForwardedRequest
from repro.troxy.prober import _FastRead
from tests.feature_sets import FEATURE_SETS

D, T = b"d" * 32, b"t" * 32


def _examples() -> dict:
    """One instance of every per-operation record class, built from
    keyword arguments that name each ``__init__`` field in order."""
    payload = Payload(content=b"abc", padded_size=16)
    op = Operation(kind=OpKind.WRITE, name="set", key="k1", body=payload)
    request = Request(client_id="client-1", request_id=7, op=op, origin="replica-0",
                      unordered=False)
    other = Request("client-2", 1, Operation(OpKind.READ, "get", "k2"), "replica-1", True)
    reply = Reply(replica_id="replica-0", client_id="client-1", request_id=7, result=payload,
                  request_digest=D, view=1, troxy_tag=T, fresh=True)
    cert = CounterCertificate(subsystem_id="tss-0", counter_name="order/0", value=3,
                              digest=D, tag=T)
    order = Order(view=0, seq=3, request=request, cert=cert, sender="replica-0", grants=())
    checkpoint = Checkpoint(seq=128, state_digest=D, sender="replica-2")
    waiter = Waiter(client_request=request, client_machine="client-machine-0", front="")
    record = TlsRecord(session_id=1, seq=0, ciphertext=b"cipher", tag=T)
    return {
        Payload: payload,
        Operation: op,
        Request: request,
        Batch: Batch(requests=(request, other)),
        Reply: reply,
        Forward: Forward(request=request, sender="replica-1"),
        Order: order,
        Commit: Commit(view=0, seq=3, request_digest=D, cert=cert, sender="replica-1"),
        Checkpoint: checkpoint,
        Tagged: Tagged(msg=checkpoint, sender="replica-2", tag=T),
        CacheQuery: CacheQuery(request_digest=D, asker="replica-0", nonce=5, tag=T),
        BatchedReply: BatchedReply(sender="replica-1", replies=(reply,), tag=T),
        ForwardedRequest: ForwardedRequest(request=request, forwarder="g1-replica-0", tag=T),
        CacheEntryReply: CacheEntryReply(request_digest=D, reply_digest=D,
                                         responder="replica-1", nonce=5, tag=T),
        Action: Action(kind="send", dst="replica-1", message=reply, request=request,
                       queries=(), nonce=3, reason="", lease=None),
        Waiter: waiter,
        CounterCertificate: cert,
        TlsRecord: record,
        SecureEnvelope: SecureEnvelope(record=record, body=request),
        RouteDecision: RouteDecision(kind="forward", group="g1", target="g1-replica-0"),
        Message: Message(src="a", dst="b", payload=reply, size=100, sent_at=0.5, msg_id=9,
                         stream_pair=("a", "b", ""), stream_seq=0),
        _Pending: _Pending(request=request, waiter=waiter, group="", votes={"replica-0": reply},
                           install_epoch=2),
        _FastRead: _FastRead(request=request, waiter=waiter, local_reply=reply,
                             expected={"replica-1"}),
        CacheEntry: CacheEntry(request_digest=D, reply=reply, keys=("k1",), voted=True),
        LogEntry: LogEntry(order=order, commit_senders={"replica-0": cert}, committed=True,
                           executed=False),
        InvokeResult: InvokeResult(result=payload, latency=0.001, retries=1,
                                   read_conflict=False, ordered=True),
        Sample: Sample(completed_at=1.0, latency=0.001, ordered=True, read=False,
                       conflict=False, retries=0),
        OpRecord: OpRecord(client="client-1", kind="put", key="k1", value=3, start=0.5,
                           end=0.75),
    }


#: The classes that were ``@dataclass(frozen=True)``; the other seven were
#: plain (mutable, unhashable) dataclasses and still are.
WAS_FROZEN = (
    Payload, Operation, Request, Batch, Reply, Forward, Order, Commit, Checkpoint, Tagged,
    CacheQuery, BatchedReply, ForwardedRequest, CacheEntryReply, Action, Waiter,
    CounterCertificate, TlsRecord, SecureEnvelope, RouteDecision, OpRecord,
)
RECORDS = tuple(_examples())
#: Per-slot and per-request state the protocol updates in place: a log
#: slot's order/committed/executed, a voter's install epoch, a cache
#: entry's voted mark. Every other record is written once.
UPDATED_IN_PLACE = (LogEntry, _Pending, CacheEntry)
WRITE_ONCE = tuple(cls for cls in RECORDS if cls not in UPDATED_IN_PLACE)
#: Slots memoised on first use: ``None`` until then.
MEMOS = {"_digest", "_auth"}


class RewriteError(AssertionError):
    pass


@contextlib.contextmanager
def write_once():
    """Every write-once record class raises on a second write while the
    context is open; yields the set of classes written to."""
    built = set()

    def setattr_once(self, name, value):
        built.add(type(self))
        try:
            current = getattr(self, name)
        except AttributeError:
            pass  # the first write of this slot
        else:
            if name not in MEMOS or current is not None:
                raise RewriteError(f"{type(self).__name__}.{name} written twice")
        object.__setattr__(self, name, value)

    assert all("__setattr__" not in vars(cls) for cls in WRITE_ONCE)
    for cls in WRITE_ONCE:
        cls.__setattr__ = setattr_once
    try:
        yield built
    finally:
        for cls in WRITE_ONCE:
            del cls.__setattr__


def test_the_records_are_slotted_and_not_frozen():
    assert len(RECORDS) == 28 and len(WAS_FROZEN) == 21
    for cls, record in _examples().items():
        assert not hasattr(record, "__dict__"), cls
        assert cls.__dataclass_params__.frozen is False, cls
        assert cls.__init__.__code__.co_filename != "<string>", cls  # hand-written


def test_the_guard_catches_a_rewritten_field():
    reply = _examples()[Reply]
    with write_once():
        with pytest.raises(RewriteError, match="Reply.result"):
            reply.result = Payload(b"forged")
    reply.view = 2  # the guard is gone with the context


def test_the_guard_catches_a_stale_memo():
    """The hazard ``frozen`` prevented: a digest memoised, then the
    content it covers replaced under it."""
    request = _examples()[Request]
    with write_once():
        request.digest()
        request.auth_bytes()
        with pytest.raises(RewriteError, match="Request.op"):
            request.op = Operation(OpKind.WRITE, "set", "k1", Payload(b"evil"))
        with pytest.raises(RewriteError, match="Request._digest"):
            request._digest = D


def test_no_record_is_written_twice_in_a_run():
    """Tiny cells of the ledger's four traffic shapes, a mixed cell under
    every feature set, and a fault that forges sealed replies, all under
    the guard; every write-once class is built in them."""
    cells = [  # system, op source, reply B, window (sim s), build keywords
        # long enough for a checkpoint (128 slots)
        ("etroxy", write_source(1024, 64), 10, 0.01, {"batching": "adaptive"}),
        ("etroxy", read_source(10, 16), 1024, 0.004, {}),
        ("etroxy", mixed_source(0.15, random.Random(1), 10, 16), 1024, 0.004, {}),
        ("etroxy", write_source(1024, 64), 10, 0.004, {"shards": 4}),
    ] + [
        ("lease" if features["leases"] == "on" else "etroxy",
         mixed_source(0.15, random.Random(1), 10, 16), 1024, 0.004,
         {"batching": features["batching"]})
        for features in FEATURE_SETS
    ]
    with write_once() as built:
        for system, source, reply_size, window, kwargs in cells:
            _cluster, summary = _run_system(
                system, source, reply_size, 8, 0.002, window, seed=1, **kwargs
            )
            assert summary.count > 0
        result = run_scenario(get_scenario("host_tamper_replies"), 1)
    assert result["ok"] and result["stats"]["wire_hits"]["tampered"]
    assert set(WRITE_ONCE) - built == set()


def _reference(cls):
    """A dataclass of ``cls``'s field list, declared the way ``cls`` was
    before it was slotted: frozen, or plain for the seven that were."""
    spec = [
        (f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory, init=f.init,
            repr=f.repr, hash=f.hash, compare=f.compare,
        ))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=cls in WAS_FROZEN)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_the_dataclass_surface_is_unchanged(cls):
    record = _examples()[cls]
    init = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls) if f.init}
    reference = _reference(cls)(**init)
    assert [f.name for f in dataclasses.fields(record)] == [
        f.name for f in dataclasses.fields(reference)
    ]
    assert repr(record) == repr(reference)
    copy = dataclasses.replace(record)
    assert copy == record and copy is not record
    assert dataclasses.replace(reference) == reference
    if cls in WAS_FROZEN:
        assert hash(record) == hash(reference) == hash(copy)
    else:
        assert cls.__hash__ is None and type(reference).__hash__ is None
    if hasattr(record, "digest") and callable(record.digest):
        record.digest()
    if hasattr(record, "auth_bytes"):
        record.auth_bytes()
    assert record == copy and repr(record) == repr(reference)  # memos stay out
    if cls in WAS_FROZEN:
        assert hash(record) == hash(copy)


def test_requests_and_replies_are_dict_keys_and_set_members():
    examples = _examples()
    for record in (examples[Request], examples[Reply]):
        twin = dataclasses.replace(record)
        assert {record: 1}[twin] == 1
        assert twin in {record}
        assert dataclasses.replace(record, request_id=8) not in {record}
