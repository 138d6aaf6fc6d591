"""Property-based tests for the linearizability checker itself, plus an
end-to-end property: real Troxy clusters produce linearizable histories
with agreement batching on (docs/BATCHING.md)."""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.history import HistoryRecorder
from repro.analysis.linearizability import OpRecord, check_linearizable
from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy


@st.composite
def sequential_histories(draw):
    """Generate a history by *actually executing* ops sequentially against
    a register — such a history is linearizable by construction."""
    n = draw(st.integers(min_value=1, max_value=12))
    t = 0.0
    state = None
    records = []
    for i in range(n):
        is_put = draw(st.booleans())
        duration = draw(st.floats(min_value=0.1, max_value=1.0))
        if is_put:
            value = str(i).encode()  # unique per write
            records.append(OpRecord(f"c{i % 3}", "put", "k", value, t, t + duration))
            state = value
        else:
            records.append(OpRecord(f"c{i % 3}", "get", "k", state, t, t + duration))
        t += duration + draw(st.floats(min_value=0.01, max_value=0.5))
    return records


@given(sequential_histories())
@settings(max_examples=100, deadline=None)
def test_sequential_execution_is_always_linearizable(history):
    assert check_linearizable(history)


@given(sequential_histories(), st.data())
@settings(max_examples=100, deadline=None)
def test_reading_a_never_written_value_is_never_linearizable(history, data):
    gets = [i for i, r in enumerate(history) if r.kind == "get"]
    if not gets:
        return
    index = data.draw(st.sampled_from(gets))
    victim = history[index]
    poisoned = OpRecord(
        victim.client, "get", victim.key, b"\xff<never written>",
        victim.start, victim.end,
    )
    mutated = history[:index] + [poisoned] + history[index + 1:]
    assert not check_linearizable(mutated)


@given(sequential_histories())
@settings(max_examples=50, deadline=None)
def test_widening_intervals_preserves_linearizability(history):
    """Relaxing real-time constraints can only make a linearizable
    history easier to linearize."""
    widened = [
        OpRecord(r.client, r.kind, r.key, r.value, r.start - 0.05, r.end + 0.05)
        for r in history
    ]
    assert check_linearizable(widened)


def linearizable_by_search(history) -> bool:
    """Brute-force oracle: some order of all ops replays as one register
    per key and respects real time."""
    for order in permutations(history):
        state = {}
        for op in order:
            if op.kind == "put":
                state[op.key] = op.value
            elif state.get(op.key) != op.value:
                break
        else:
            if not any(b.end < a.start for i, a in enumerate(order) for b in order[i + 1:]):
                return True
    return False


@st.composite
def small_histories(draw):
    """Up to 7 ops on one or two keys, unique written values, integer
    times so touching and equal endpoints are common; a read returns a
    written value, the initial None, or (rarely) an alien value."""
    n = draw(st.integers(min_value=1, max_value=7))
    shapes = [
        (draw(st.booleans()), draw(st.sampled_from("xxxy")),
         draw(st.integers(0, 10)), draw(st.integers(0, 4)))
        for _ in range(n)
    ]
    written = [i for i, (is_put, *_rest) in enumerate(shapes) if is_put]
    history = []
    for i, (is_put, key, start, length) in enumerate(shapes):
        if is_put:
            value = i
        else:
            value = draw(st.sampled_from(written + [None, None, "alien"]))
        history.append(OpRecord("c", "put" if is_put else "get", key, value,
                                start, start + length))
    return history


@given(small_histories())
@settings(max_examples=500, deadline=None)
def test_zone_check_agrees_with_brute_force_search(history):
    assert check_linearizable(history) == linearizable_by_search(history)


# -- end-to-end: batched agreement stays linearizable ---------------------------


@st.composite
def cluster_workloads(draw):
    """A cluster seed and a contended workload (few keys, clients
    enough to form multi-request batches, mixed reads/writes with
    unique values)."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_clients = draw(st.integers(min_value=4, max_value=6))
    schedules = []
    for c in range(n_clients):
        ops = []
        for n in range(draw(st.integers(min_value=2, max_value=5))):
            key = f"k{draw(st.integers(0, 1))}"
            if draw(st.booleans()):
                ops.append(put(key, f"c{c}/{n}".encode()))
            else:
                ops.append(get(key))
        schedules.append(ops)
    return seed, schedules


@given(cluster_workloads())
@settings(max_examples=12, deadline=None)
def test_batched_agreement_histories_are_linearizable(workload):
    """With batching on, the recorded client history — fast reads,
    cached reads, and batched ordered operations included — linearizes."""
    seed, schedules = workload
    cluster = build_troxy(seed=seed, app_factory=KvStore, batching="adaptive")
    recorder = HistoryRecorder(cluster.env)
    done = []

    def driver(index, client, ops):
        for op in ops:
            yield from client.invoke(op)
        done.append(index)

    for index, ops in enumerate(schedules):
        client = recorder.wrap(cluster.new_client(contact_index=0))
        cluster.env.process(driver(index, client, ops))
    cluster.env.run(until=60.0)

    assert len(done) == len(schedules), "workload did not complete"
    assert recorder.violation() is None


# -- end-to-end: sharded deployments stay linearizable ---------------------------


@st.composite
def sharded_workloads(draw):
    """A shard count, cluster seed, and a contended workload whose keys
    deliberately span group boundaries (cross-shard reads included)."""
    shards = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_clients = draw(st.integers(min_value=4, max_value=6))
    schedules = []
    for c in range(n_clients):
        ops = []
        for n in range(draw(st.integers(min_value=2, max_value=4))):
            key = f"k{draw(st.integers(0, 3))}"
            if draw(st.booleans()):
                ops.append(put(key, f"c{c}/{n}".encode()))
            else:
                ops.append(get(key))
        schedules.append(ops)
    return shards, seed, schedules


@given(sharded_workloads())
@settings(max_examples=8, deadline=None)
def test_sharded_histories_are_linearizable(workload):
    """Whatever the group count, the recorded client history — local and
    forwarded writes, attested remote fast reads, cached reads —
    linearizes. Clients contact different groups (round-robin), so the
    cross-group invalidation-epoch machinery is genuinely exercised."""
    shards, seed, schedules = workload
    cluster = build_troxy(seed=seed, shards=shards, app_factory=KvStore)
    recorder = HistoryRecorder(cluster.env)
    done = []

    def driver(index, client, ops):
        for op in ops:
            yield from client.invoke(op)
        done.append(index)

    for index, ops in enumerate(schedules):
        client = recorder.wrap(cluster.new_client())
        cluster.env.process(driver(index, client, ops))
    cluster.env.run(until=90.0)

    assert len(done) == len(schedules), "workload did not complete"
    assert recorder.violation() is None
