"""Wire-conformance pins for the lease read path (docs/READS.md).

The compatibility contract:

* with leases disabled (the default), the deployment is *byte-for-byte*
  trace-identical to the pre-lease protocol — same messages, same
  sizes, same simulated timestamps (the fig5 anchor),
* with leases enabled but no reads in the workload, nothing lease-
  related ever touches the wire: ORDER messages carrying zero grants
  serialize to the exact pre-lease bytes (``Order.content_digest`` and
  ``wire_size`` are unchanged when ``grants`` is empty),
* a read racing a write's lease revocation is never torn: it serves the
  pre-write state while the lease is live (legal — the write commits
  only after the revocation settles) or goes through the voted path;
  the post-ack read observes the write.
"""

from repro.apps.kvstore import KvStore, get, put
from repro.deploy import build_troxy
from repro.hybster.config import LeaseConfig


def wire_trace(cluster) -> list[str]:
    """Every wire send as a rendered record (timestamp included)."""
    return [str(r) for r in cluster.tracer.filter(category="proto.send")]


def run_workload(leases, ops_fn, seed: int = 81, until: float = 30.0):
    cluster = build_troxy(
        seed=seed, app_factory=KvStore, trace=True, leases=leases
    )
    client = cluster.new_client(contact_index=0)
    outcomes = []

    def driver():
        for op in ops_fn():
            res = yield from client.invoke(op)
            outcomes.append(res.result.content)

    cluster.env.process(driver())
    cluster.env.run(until=until)
    return cluster, outcomes


def mixed_ops():
    for i in range(4):
        yield put(f"k{i % 2}", f"v{i}".encode())
        for _ in range(3):
            yield get(f"k{i % 2}")


def write_ops():
    for i in range(8):
        yield put(f"k{i % 3}", f"v{i}".encode())


def test_leases_off_is_wire_identical_to_default():
    """``leases="off"`` routes through the exact pre-lease code path:
    the full wire trace — reads, writes, fast-read votes — is identical
    to a deployment that never heard of leases."""
    default, default_results = run_workload(None, mixed_ops)
    off, off_results = run_workload("off", mixed_ops)
    assert off_results == default_results
    assert wire_trace(off) == wire_trace(default)
    assert all(core.holder is None for core in off.cores)
    assert not any(
        name in host.enclave.ecall_names
        for host in off.hosts for name in ("install_leases", "handle_lease_revoke")
    )


def test_write_only_workload_is_wire_identical_with_leases_on():
    """No reads means no lease requests, no grants, no revocations: an
    ORDER carrying zero grants must serialize byte-for-byte like the
    pre-lease ORDER, so the whole write-path trace pins equal."""
    off, off_results = run_workload("off", write_ops)
    on, on_results = run_workload(True, write_ops)
    assert on_results == off_results
    assert wire_trace(on) == wire_trace(off)
    assert all(core.stats.lease_requests_sent == 0 for core in on.cores)
    leader = on.replicas[0]
    assert leader.stats.lease_grants_attached == 0


def test_lease_state_machine_equivalence():
    """Leases change *where* reads are served, never what anyone
    observes: same client outcomes, same converged application state as
    the voted path."""
    off, off_results = run_workload("off", mixed_ops, seed=82)
    on, on_results = run_workload(True, mixed_ops, seed=82)
    assert on_results == off_results
    off_snaps = {r.app.snapshot() for r in off.replicas}
    on_snaps = {r.app.snapshot() for r in on.replicas}
    assert len(off_snaps) == len(on_snaps) == 1
    assert on_snaps == off_snaps
    # The lease path really ran on the leased deployment.
    assert sum(c.stats.lease_read_hits for c in on.cores) > 0


def test_read_racing_revocation_is_never_torn():
    """A reader hammering a key while a writer updates it: every read
    returns either the old or the new committed value — atomically one
    or the other — and once any read observes the write, no later read
    regresses. The revocation window (write parked, lease still live at
    the holder) must serve the *pre-write* state: the write has not
    committed yet."""
    cluster = build_troxy(
        seed=83, app_factory=KvStore, trace=True,
        leases=LeaseConfig.on(duration=0.4),
    )
    env = cluster.env
    reader = cluster.new_client(contact_index=1)
    writer = cluster.new_client(contact_index=0)
    reads = []
    done = []

    def read_loop():
        # Warm the lease, then read continuously across the write.
        while env.now < 3.0:
            res = yield from reader.invoke(get("k0"))
            reads.append((env.now, res.result.content))
            yield env.timeout(0.02)
        done.append("reader")

    def write_once():
        yield from writer.invoke(put("k0", b"old"))
        yield env.timeout(0.6)  # let the lease install and serve
        yield from writer.invoke(put("k0", b"new"))
        done.append("writer")

    env.process(read_loop())
    env.process(write_once())
    env.run(until=30.0)

    assert set(done) == {"reader", "writer"}
    values = [v for _t, v in reads if v is not None]
    assert set(values) <= {None, b"", b"old", b"new"}, f"torn read: {set(values)}"
    # No regression: once "new" is observed, "old" never comes back.
    first_new = next((i for i, v in enumerate(values) if v == b"new"), None)
    assert first_new is not None, "write never became visible to the reader"
    assert all(v == b"new" for v in values[first_new:]), "read regressed after write"
    # The race actually exercised the lease machinery.
    assert sum(c.stats.lease_read_hits for c in cluster.cores) > 0
    assert sum(c.stats.lease_revocations for c in cluster.cores) >= 1
    assert cluster.replicas[0].stats.lease_writes_parked >= 1


def test_revoked_lease_cannot_serve_after_ack():
    """After the revocation acks and the write commits, the holder's
    next read of the key must reflect the write — the revoke dropped
    the lease *and* the cached entry (shared epoch source)."""
    cluster = build_troxy(
        seed=84, app_factory=KvStore, leases=LeaseConfig.on(duration=5.0)
    )
    env = cluster.env
    reader = cluster.new_client(contact_index=1)
    writer = cluster.new_client(contact_index=0)
    log = []

    def driver():
        yield from writer.invoke(put("k0", b"before"))
        res = yield from reader.invoke(get("k0"))  # leases + caches
        log.append(res.result.content)
        res = yield from reader.invoke(get("k0"))  # served under lease
        log.append(res.result.content)
        yield from writer.invoke(put("k0", b"after"))  # parks, revokes, commits
        res = yield from reader.invoke(get("k0"))
        log.append(res.result.content)

    env.process(driver())
    env.run(until=30.0)
    assert log == [b"before", b"before", b"after"]
