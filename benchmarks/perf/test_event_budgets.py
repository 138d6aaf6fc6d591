"""Event-churn and boundary-crossing budgets for the simulation hot path.

Every cell below is a deterministic miniature of one figure workload:
same seed, same topology, same client mix as the full run, scaled down
to a few hundred thousand scheduler events. ``BUDGET`` records the
``env.scheduled_events`` count measured when the hot-path overhaul
landed; a regression of more than 10 % means some change re-introduced
per-operation event churn (extra bridge events, split acquisitions,
chatty handoffs) and should be treated like a failing correctness test
— event counts, unlike wall-clock, do not vary across machines.

A budget *undershoot* of more than 10 % is also flagged: events were
eliminated, which changes same-time tiebreak order and will show up in
the obs byte-diff gate. Re-baseline deliberately or fix the change.

Next to the events, each cell pins two per-operation counts of the
whole run: boundary crossings (``EnclaveStats.ecalls`` over every
Troxy enclave and trusted-subsystem boundary) and MAC operations
(``MacKey.sign`` calls; ``verify`` signs internally). These are what a
quorum's *losing side* used to cost — a surplus vote is one crossing
and one MAC check, a surplus commit one MAC check — so a change that
lets decided requests cross the boundary again fails here on a count:
the unfiltered etroxy write cell sits at 8.98 crossings and 19.5 MACs
per operation.

Next to the MAC operations, each cell pins the HMACs actually computed
per operation: the calls of ``primitives._hmac_digest``, the one place
``MacKey.sign`` computes a tag, which it reaches only when neither
generation of the tag memo holds ``(secret, data)``. About 40 % of the
signs of a write and half of a fast read's are memo hits (a verifier
re-checking a tag its signer just made, a reply voted at several
places), so a memo that stops hitting fails here on a count. Both memos
are emptied before each cell, so a cell's count does not depend on what
ran before it in the process. The values were recorded with the
65 536-entry memo that two generations of 1 024 replaced (DESIGN.md
D26), and match it to within 0.1 %.

The two Troxy write cells were re-recorded when early votes started to
wait at the host (DESIGN.md D12) and the locally folded vote stopped
being tagged: one MAC per operation less (18.37 -> 17.36 and 18.27 ->
17.28), and 0.17 / 0.23 crossings less (8.155 -> 7.985, 8.080 -> 7.848).
With eight clients the contact usually executes before the first
remote vote arrives, so only that share of operations had a vote to
hold; on the saturated ledger workload it is 0.79 of 9.58. ``bl`` has
no Troxy host and did not move. The fast-read cell moved only through
its warm-up writes (8 events of 74 897, 0.01 MACs per operation) and
keeps its pins.

The last pin is ``env.pending``: the entries still in the schedule when
the cell ends. Every request arms a 2 s timer that its reply makes
moot, and the cells are 0.07 s long, so when the lost timers stayed on
the heap it held one entry per request (1 590 / 1 652 / 4 609 / 1 873
for the four cells below). A fired ``any_of`` now withdraws its losing
timers and the heap is rebuilt without them once they are at least
``_COMPACT_MIN`` and more than half of it (DESIGN.md D25); what is left
is 21-26 live entries plus the withdrawn timers since the last rebuild.
Where that rebuild falls moves with any change to the event structure,
so the pin allows one rebuild's worth (``_COMPACT_MIN``) above the
recorded count, and dead timers piling up again fail it on a count.

The records built per operation (messages, ``Action``s, certificates,
samples, history records) have hand-written ``__init__``s (DESIGN.md
D28). Each cell runs under ``cProfile`` from the moment its clients are
connected, and the calls of code objects named ``__init__`` in file
``<string>`` -- the ``__init__`` a dataclass generates -- are pinned at
``MAX_GENERATED_INITS`` per operation. What is left are the window's
``Summary`` and the like. Before the records were slotted the cells
built 51.97 / 51.85 / 40.16 / 23.39 of them per operation (in the order
below); a record class that gets a generated ``__init__`` again fails
here on a count. The profile only observes: the run and every count
above are the same with it on.
"""

import cProfile

import pytest

from repro.bench.experiments import _run_system, read_source, write_source
from repro.crypto import primitives
from repro.crypto.primitives import MacKey
from repro.sim.engine import _COMPACT_MIN

#: (cell-id, system, op source, kwargs, budgets): scheduled events of
#: the run, ecalls / MAC operations / HMACs computed per operation, and
#: the entries pending in the schedule at the end.
CELLS = [
    (
        "fig6-etroxy-128B-8c",
        "etroxy",
        write_source(128),
        dict(reply_size=10, n_clients=8, warmup=0.02, duration=0.05),
        dict(events=195_531, ecalls=7.985, macs=17.36, hmacs=10.59, pending=54),
    ),
    (
        "fig6-ctroxy-128B-8c",
        "ctroxy",
        write_source(128),
        dict(reply_size=10, n_clients=8, warmup=0.02, duration=0.05),
        dict(events=201_172, ecalls=7.848, macs=17.28, hmacs=10.58, pending=116),
    ),
    (
        "fig6-bl-128B-8c",
        "bl",
        write_source(128),
        dict(reply_size=10, n_clients=8, warmup=0.02, duration=0.05),
        dict(events=228_768, ecalls=3.003, macs=17.09, hmacs=10.03, pending=257),
    ),
    (
        "fig8-etroxy-1KiB-8c",
        "etroxy",
        read_source(),
        dict(reply_size=1024, n_clients=8, warmup=0.02, duration=0.05),
        dict(events=74_897, ecalls=3.064, macs=8.12, hmacs=4.058, pending=81),
    ),
]

TOLERANCE = 0.10
#: per-operation counts move only with the in-flight tail of the run; one
#: surplus crossing or MAC per operation is 6-12 % of any cell.
COUNT_TOLERANCE = 0.05
#: dataclass-generated ``__init__`` calls per operation, once clients are up
MAX_GENERATED_INITS = 0.01


class _ProfiledLoad:
    """An ``obs`` of a cell that switches its profile on once the clients
    are connected, so the deployment's set-up is not counted."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def attach(self, cluster) -> None:
        pass

    def wrap_clients(self, clients):
        self.profile.enable()
        return clients

    def generated_inits(self) -> int:
        self.profile.disable()
        return sum(
            entry.callcount for entry in self.profile.getstats()
            if not isinstance(entry.code, str)
            and entry.code.co_filename == "<string>" and entry.code.co_name == "__init__"
        )


@pytest.fixture(scope="module")
def measured():
    """Every cell run once, from empty memos: events, crossings, MACs,
    HMACs computed and generated ``__init__``s per operation, pending
    entries."""
    sign, hmac_digest = MacKey.sign, primitives._hmac_digest
    signed, computed = [0], [0]

    def counting_sign(self, data):
        signed[0] += 1
        return sign(self, data)

    def counting_hmac_digest(secret, data, digestmod):
        computed[0] += 1
        return hmac_digest(secret, data, digestmod)

    results = {}
    MacKey.sign = counting_sign
    primitives._hmac_digest = counting_hmac_digest
    try:
        for cell_id, system, source, kwargs, _budgets in CELLS:
            signed[0] = computed[0] = 0
            primitives._tags, primitives._digests = primitives._Memo(), primitives._Memo()
            load = _ProfiledLoad()
            cluster, _summary = _run_system(system, source, obs=load, **kwargs)
            inits = load.generated_inits()
            boundaries = [replica.boundary for replica in cluster.replicas]
            boundaries += [host.enclave for host in getattr(cluster, "hosts", ())]
            cores = getattr(cluster, "cores", None)
            operations = (
                sum(core.stats.client_requests for core in cores)
                if cores
                else cluster.leader.stats.executions
            )
            results[cell_id] = {
                "events": cluster.sim_stats["scheduled_events"],
                "ecalls": sum(b.stats.ecalls for b in boundaries) / operations,
                "macs": signed[0] / operations,
                "hmacs": computed[0] / operations,
                "inits": inits / operations,
                "pending": cluster.sim_stats["pending"],
            }
    finally:
        MacKey.sign = sign
        primitives._hmac_digest = hmac_digest
    return results


@pytest.mark.parametrize("cell", CELLS, ids=[cell[0] for cell in CELLS])
def test_scheduled_events_within_budget(cell, measured):
    cell_id, budget = cell[0], cell[4]["events"]
    events = measured[cell_id]["events"]
    assert events <= budget * (1 + TOLERANCE), (
        f"{cell_id}: {events} scheduled events exceeds the recorded budget "
        f"{budget} by more than {TOLERANCE:.0%} — the hot path regressed"
    )
    assert events >= budget * (1 - TOLERANCE), (
        f"{cell_id}: {events} scheduled events undershoots the budget "
        f"{budget} by more than {TOLERANCE:.0%} — events were eliminated; "
        f"re-baseline deliberately (see module docstring)"
    )


@pytest.mark.parametrize("cell", CELLS, ids=[cell[0] for cell in CELLS])
@pytest.mark.parametrize("count", ["ecalls", "macs", "hmacs"])
def test_crossings_and_macs_per_operation_within_budget(cell, count, measured):
    cell_id, budget = cell[0], cell[4][count]
    value = measured[cell_id][count]
    assert abs(value - budget) <= budget * COUNT_TOLERANCE, (
        f"{cell_id}: {value:.3f} {count} per operation against a budget of "
        f"{budget} (±{COUNT_TOLERANCE:.0%}) — surplus work crossed the boundary "
        f"again, a memo stopped hitting, or work was removed: re-baseline "
        f"deliberately"
    )


@pytest.mark.parametrize("cell", CELLS, ids=[cell[0] for cell in CELLS])
def test_no_generated_init_per_operation(cell, measured):
    cell_id = cell[0]
    inits = measured[cell_id]["inits"]
    assert inits <= MAX_GENERATED_INITS, (
        f"{cell_id}: {inits:.3f} dataclass-generated __init__ calls per operation "
        f"(pin {MAX_GENERATED_INITS}) -- a record built per operation lost its "
        f"hand-written __init__"
    )


@pytest.mark.parametrize("cell", CELLS, ids=[cell[0] for cell in CELLS])
def test_pending_entries_within_pin(cell, measured):
    cell_id, pin = cell[0], cell[4]["pending"]
    pending = measured[cell_id]["pending"]
    assert pending <= pin + _COMPACT_MIN, (
        f"{cell_id}: {pending} entries pending at the end against a pin of "
        f"{pin} (+{_COMPACT_MIN}) — timers that lost an any_of are piling "
        f"up on the heap again"
    )


def test_event_counts_are_deterministic():
    """Two same-seed runs must agree exactly on both counters (the budget
    gate above is only meaningful if counts are machine-independent)."""
    def once():
        cluster, _ = _run_system(
            "etroxy", write_source(128), reply_size=10,
            n_clients=4, warmup=0.01, duration=0.02,
        )
        stats = cluster.sim_stats
        return stats["steps"], stats["scheduled_events"]

    first, second = once(), once()
    assert first == second
    assert first[0] > 10_000  # the cell is big enough to be a real gate
