"""Table I: comparison of read optimizations and consistency levels.

The table itself is static (``python -m repro.bench table1`` writes it),
but its consistency column is a *claim*; this benchmark verifies both
sides of it against the running systems:

* Prophecy (weak): a stale-read witness exists — with one lagging
  replica (within f) pinned as the validation probe, a read after a
  completed write returns the old value.
* Troxy (strong): the same adversarial scenario yields the new value,
  and a concurrent random workload's history passes the linearizability
  checker.
"""

from repro.analysis.history import HistoryRecorder
from repro.analysis.linearizability import OpRecord, find_violation
from repro.apps.base import Payload
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_prophecy, build_troxy


class LaggingKv(KvStore):
    """Applies writes until frozen — a Byzantine replica within f=1."""

    def __init__(self):
        super().__init__()
        self.lag = False

    def execute(self, op):
        if not op.is_read and self.lag:
            return Payload(b"stored")
        return super().execute(op)


class _Pin:
    def __init__(self, value):
        self.value = value

    def choice(self, seq):
        return self.value


def stale_read_witness_prophecy() -> bytes:
    cluster = build_prophecy(seed=31, app_factory=KvStore)
    lagging = LaggingKv()
    cluster.replicas[1].app = lagging
    cluster.middlebox.rng = _Pin("replica-1")
    client = cluster.new_client()
    result = []

    def driver():
        yield from client.invoke(put("k", b"old"))
        yield from client.invoke(get("k"))  # seeds the sketch
        lagging.lag = True
        yield from client.invoke(put("k", b"new"))
        outcome = yield from client.invoke(get("k"))
        result.append(outcome.result.content)

    cluster.env.process(driver())
    cluster.env.run(until=60.0)
    return result[0]


def same_attack_on_troxy() -> bytes:
    cluster = build_troxy(seed=31, app_factory=KvStore)
    lagging = LaggingKv()
    cluster.replicas[1].app = lagging
    client = cluster.new_client(contact_index=1)
    result = []

    def driver():
        yield from client.invoke(put("k", b"old"))
        yield from client.invoke(get("k"))
        lagging.lag = True
        yield from client.invoke(put("k", b"new"))
        outcome = yield from client.invoke(get("k"))
        result.append(outcome.result.content)

    cluster.env.process(driver())
    cluster.env.run(until=60.0)
    return result[0]


def troxy_random_history() -> list[OpRecord]:
    """Concurrent readers/writers against Troxy; record the history."""
    cluster = build_troxy(seed=32, app_factory=KvStore)
    recorder = HistoryRecorder(cluster.env)
    clients = [recorder.wrap(cluster.new_client()) for _ in range(6)]

    def writer(client, index):
        for i in range(6):
            yield from client.invoke(put("hot", f"w{index}.{i}".encode()))

    def reader(client):
        for _ in range(8):
            yield from client.invoke(get("hot"))

    cluster.env.process(writer(clients[0], 0))
    cluster.env.process(writer(clients[1], 1))
    for client in clients[2:]:
        cluster.env.process(reader(client))
    cluster.env.run(until=120.0)
    return recorder.records


def run_table1():
    prophecy_read = stale_read_witness_prophecy()
    troxy_read = same_attack_on_troxy()
    history = troxy_random_history()
    return prophecy_read, troxy_read, history


def test_table1():
    prophecy_read, troxy_read, history = run_table1()

    assert prophecy_read == b"old"  # the documented weakness, reproduced
    assert troxy_read == b"new"  # Troxy stays strong under the same attack
    violation = find_violation(history)
    assert violation is None, violation
    assert len(history) >= 30
