"""The untrusted host's surplus filter (DESIGN.md D9).

Decided means done: a reply for a request the enclave has no voter
record for, and a probe answer for a resolved fast read, are dropped on
the untrusted side of the boundary. The filter is advisory — these
tests also run it *lying* in both directions and check that the worst
it can cause is an omission.
"""

from repro.analysis.history import HistoryRecorder
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.hybster.messages import Reply
from repro.hybster.secure import SecureEnvelope
from repro.troxy.host import _OpenRequest
from repro.troxy.messages import BatchedReply, CacheEntryReply
from repro.workloads.legacy import LegacyClient


def run_ops(cluster, client, ops, until=30.0):
    results = []

    def driver():
        for op in ops:
            outcome = yield from client.invoke(op)
            results.append(outcome)

    cluster.env.process(driver())
    cluster.env.run(until=cluster.env.now + until)
    return results


def capture(cluster, kind, dst):
    """Every payload of type ``kind`` sent to node ``dst`` from now on."""
    seen = []

    def tap(attempt):
        if attempt.dst == dst and isinstance(attempt.payload, kind):
            seen.append(attempt.payload)

    cluster.net.add_send_filter(tap)
    return seen


class EcallSink:
    """Probe-bus subscriber: ``fn(name)`` for each crossing into one enclave."""

    def __init__(self, enclave, fn):
        self.enclave, self.fn = enclave.name, fn

    def begin(self, _t, kind, _node, _args, attrs):
        if kind == "enclave.ecall" and attrs["enclave"] == self.enclave:
            self.fn(attrs["ecall"])


def ecall_log(host):
    names = []
    host.enclave.probe.subscribe(EcallSink(host.enclave, names.append))
    return names


# -- (a) surplus votes never cross ------------------------------------------------


def test_the_third_reply_of_a_decided_request_does_not_cross():
    cluster = build_troxy(seed=201, app_factory=KvStore, batching="off")
    host = cluster.hosts[0]
    votes = capture(cluster, Reply, host.node.name)
    names = ecall_log(host)
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("k", b"v")])
    # f = 1: the local vote is folded into the authenticate ecall, one
    # remote reply completes the quorum, the other is surplus. The fold
    # came first here, so the remote vote could decide on arrival and
    # nothing waited at the host (test_vote_hold.py has the other order).
    assert len(votes) == 2
    assert names.count("handle_replica_reply") == 1
    assert host.stats.surplus_votes == 1 and host.stats.held_votes == 0
    assert cluster.cores[0].stats.replies_voted == 1

    before = host.enclave.stats.ecalls
    cluster.net.send(cluster.hosts[1].node.name, host.node.name, votes[0])
    cluster.env.run(until=cluster.env.now + 1.0)
    assert host.enclave.stats.ecalls == before
    assert host.stats.surplus_votes == 2


def test_a_bundle_with_no_open_member_does_not_cross():
    cluster = build_troxy(seed=202, app_factory=KvStore, batching="adaptive")
    host = cluster.hosts[1]
    bundles = capture(cluster, BatchedReply, host.node.name)
    clients = [cluster.new_client(contact_index=1) for _ in range(4)]
    for index, client in enumerate(clients):
        cluster.env.process(client.invoke(put(f"k{index}", b"v")))
    cluster.env.run(until=10.0)
    assert all(client.stats.timeouts == 0 for client in clients)
    leader = cluster.replicas[0].stats
    assert leader.batched_requests > leader.batches_sent
    assert any(len(bundle) > 1 for bundle in bundles)

    before = host.enclave.stats.ecalls
    surplus = host.stats.surplus_votes
    bundle = max(bundles, key=len)
    cluster.net.send(cluster.hosts[0].node.name, host.node.name, bundle)
    cluster.env.run(until=cluster.env.now + 1.0)
    assert host.enclave.stats.ecalls == before
    assert host.stats.surplus_votes == surplus + len(bundle)


# -- (b) a retransmission re-opens a decided request -----------------------------------


def test_retransmission_reopens_a_decided_request():
    """The sealed reply is lost on the wire; the client reconnects to the
    *same* server and retransmits. The enclave registers a fresh voter
    record, the host re-opens the request, and the replicas' replayed
    (``fresh=False``) replies reach the voter a second time."""
    cluster = build_troxy(seed=203, app_factory=KvStore, batching="off")
    host = cluster.hosts[1]
    client = LegacyClient(
        cluster.machines[0], "client-solo", cluster.keyring, hosts=[host],
        request_timeout=0.5,
    )
    client.connect_instant()
    dropped = []

    def lose_first_sealed_reply(attempt):
        if (
            not dropped
            and attempt.src == host.node.name
            and isinstance(attempt.payload, SecureEnvelope)
            and isinstance(attempt.payload.body, Reply)
        ):
            attempt.drop = True
            dropped.append(attempt.payload)

    cluster.net.add_send_filter(lose_first_sealed_reply)
    replays = capture(cluster, Reply, host.node.name)
    results = run_ops(cluster, client, [put("k", b"v"), get("k")])
    assert [r.result.content for r in results] == [b"stored", b"v"]
    assert dropped and client.stats.timeouts == 1
    assert results[0].retries == 1
    # The write was decided twice at this Troxy, the second time by
    # replayed replies that passed the filter; it executed once.
    assert cluster.cores[1].stats.replies_voted == 3
    assert any(not reply.fresh for reply in replays)
    assert cluster.replicas[1].stats.executions == 2


# -- (c) a lying filter can omit, nothing else -----------------------------------------


class _DropsEverything(dict):
    """A host that claims no request is ever open."""

    def get(self, key, default=None):
        return None


class _Anything:
    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False


class _PassesEverything(dict):
    """A host that claims every request is open and one vote short of
    its quorum, so nothing is dropped and nothing waits."""

    def get(self, key, default=None):
        entry = _OpenRequest(_Anything())
        entry.inside = 1 << 30
        return entry


def contended_run(cluster, contact_index, keys=("k0", "k1")):
    recorder = HistoryRecorder(cluster.env)
    k0, k1 = keys
    schedules = [
        [put(k0, b"a/0"), get(k0), put(k1, b"a/1"), get(k1), get(k0)],
        [get(k0), put(k0, b"b/0"), get(k1), put(k1, b"b/1"), get(k0)],
        [put(k1, b"c/0"), get(k1), get(k0), put(k0, b"c/1"), get(k1)],
    ]
    clients, done = [], []

    def driver(client, ops):
        for op in ops:
            yield from client.invoke(op)
        done.append(client)

    for ops in schedules:
        client = cluster.new_client(contact_index=contact_index, request_timeout=0.5)
        clients.append(client)
        cluster.env.process(driver(recorder.wrap(client), ops))
    cluster.env.run(until=60.0)
    assert len(done) == len(schedules), "workload did not complete"
    return recorder, clients


def test_a_host_that_drops_every_vote_only_costs_liveness():
    cluster = build_troxy(seed=204, app_factory=KvStore)
    liar = cluster.hosts[0]
    liar._open = _DropsEverything()
    recorder, clients = contended_run(cluster, contact_index=0)
    assert recorder.violation() is None
    # No remote vote ever reached the liar's voter: nothing it ordered
    # was decided there, and every client left for an honest server.
    assert cluster.cores[0].stats.replies_voted == 0
    assert liar.stats.surplus_votes > 0
    assert all(client.stats.failovers >= 1 for client in clients)
    assert all(client.contact is not liar for client in clients)


def test_a_host_that_filters_nothing_changes_no_result():
    cluster = build_troxy(seed=204, app_factory=KvStore)
    host = cluster.hosts[0]
    host._open = _PassesEverything()
    names = ecall_log(host)
    recorder, clients = contended_run(cluster, contact_index=0)
    assert recorder.violation() is None
    assert all(client.stats.timeouts == 0 for client in clients)
    assert host.stats.surplus_votes == 0 and host.stats.held_votes == 0
    # Every surplus vote crossed and was answered "wait" inside.
    voter_calls = names.count("handle_replica_reply") + names.count(
        "handle_replica_reply_batch"
    )
    assert voter_calls > cluster.cores[0].stats.replies_voted


# -- (f) late probe answers never cross --------------------------------------------------


def test_f2_late_cache_reply_after_an_early_conflict_does_not_cross():
    cluster = build_troxy(seed=205, f=2, app_factory=KvStore, leases="off")
    host = cluster.hosts[0]
    client = cluster.new_client(contact_index=0)
    run_ops(cluster, client, [put("k", b"v"), get("k")])
    for core in cluster.cores[1:]:
        core.cache.clear()  # whoever is probed answers "no such entry"
    answers = capture(cluster, CacheEntryReply, host.node.name)

    def hold_back_the_second(attempt):
        if len(answers) == 2 and attempt.payload is answers[1]:
            attempt.extra_delay = 0.005

    cluster.net.add_send_filter(hold_back_the_second)
    names = ecall_log(host)
    results = run_ops(cluster, client, [get("k")])
    assert results[0].result.content == b"v"
    assert len(answers) == 2  # f = 2 probes, both answered
    assert cluster.cores[0].stats.fast_read_conflicts == 1
    # The first mismatch resolved the probe; the second answer was late.
    assert names.count("handle_cache_entry_reply") == 1
    assert host.stats.surplus_probe_replies == 1
    assert "fast_read_timeout" not in names
    assert not host._probes


def test_forged_cache_reply_does_not_cancel_the_probe_timeout():
    """A rejected answer must leave the probe outstanding: otherwise one
    forged message would close it at the host, the genuine answer would
    be filtered and the read would never fall back to ordering."""
    cluster = build_troxy(
        seed=206, app_factory=KvStore, leases="off", query_timeout=0.05
    )
    host = cluster.hosts[0]
    client = cluster.new_client(contact_index=0, request_timeout=2.0)
    run_ops(cluster, client, [put("k", b"v"), get("k")])

    def corrupt(attempt):
        if attempt.dst == host.node.name and isinstance(attempt.payload, CacheEntryReply):
            answer = attempt.payload
            attempt.payload = CacheEntryReply(
                answer.request_digest, answer.reply_digest, answer.responder,
                answer.nonce, b"\x00" * len(answer.tag),
            )

    cluster.net.add_send_filter(corrupt)
    names = ecall_log(host)
    results = run_ops(cluster, client, [get("k")])
    assert results[0].result.content == b"v"
    assert client.stats.timeouts == 0
    assert names.count("fast_read_timeout") == 1
    assert cluster.cores[0].stats.fast_read_timeouts == 1


# -- (g) one sweeper per host, and it survives a stop ---------------------------------


def query_timer_entries(env):
    """Scheduler-heap entries that will resume a query-timer process."""
    return sum(
        1
        for _time, _tick, event in env._queue
        for callback in event.callbacks or ()
        if getattr(getattr(callback, "__self__", None), "name", "").endswith(":qtimer")
    )


def test_query_timer_heap_entries_are_per_host_not_per_read():
    cluster = build_troxy(seed=207, app_factory=KvStore, leases="off")
    warm = cluster.new_client(contact_index=0)
    run_ops(cluster, warm, [put("k", b"v"), get("k")], until=1.0)
    done = []

    def reader(client):
        for _ in range(125):
            yield from client.invoke(get("k"))
        done.append(client)

    clients = [cluster.new_client(contact_index=i % 3) for i in range(8)]
    for client in clients:
        cluster.env.process(reader(client))
    start = cluster.env.now
    while len(done) < len(clients):
        cluster.env.run(until=cluster.env.now + 0.001)
    # All 1 000 reads fit inside one query_timeout: a timer per read
    # would still be sitting on the heap, every one of them.
    assert cluster.env.now - start < cluster.hosts[0].query_timeout
    assert sum(core.stats.fast_read_hits for core in cluster.cores) >= 1000
    assert query_timer_entries(cluster.env) <= len(cluster.hosts)
    assert not any(host._probes for host in cluster.hosts)
    # ... and no resolved probe is timed out later.
    logs = [ecall_log(host) for host in cluster.hosts]
    cluster.env.run(until=cluster.env.now + 1.0)
    assert not any("fast_read_timeout" in log for log in logs)
    assert query_timer_entries(cluster.env) == 0


def test_probe_deadline_that_falls_due_while_stopped_runs_after_restart():
    cluster = build_troxy(
        seed=208, app_factory=KvStore, leases="off", query_timeout=0.05
    )
    host, core = cluster.hosts[1], cluster.cores[1]
    client = cluster.new_client(contact_index=1, request_timeout=5.0)
    run_ops(cluster, client, [put("k", b"v"), get("k")], until=1.0)
    # The probe is never answered, and the host goes down before the
    # deadline.
    cluster.net.add_send_filter(
        lambda attempt: setattr(
            attempt, "drop",
            attempt.drop or isinstance(attempt.payload, CacheEntryReply),
        )
    )
    results = []

    def reader():
        results.append((yield from client.invoke(get("k"))))

    cluster.env.process(reader())
    cluster.env.run(until=cluster.env.now + 0.01)
    (nonce,) = host._probes
    assert core.probe_request(nonce).op == get("k")
    host.stop()
    cluster.env.run(until=cluster.env.now + 0.2)  # deadline passes, host down
    assert core.probe_request(nonce) is not None
    host.restart()
    cluster.env.run(until=cluster.env.now + 1.0)
    assert core.probe_request(nonce) is None and not host._probes
    assert core.stats.fast_read_timeouts == 1
    # The read fell back to ordering and the client, still waiting on
    # this server, got its answer without a retry.
    assert results and results[0].result.content == b"v"
    assert client.stats.timeouts == 0
