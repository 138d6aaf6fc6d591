"""The simulated-CPU account measures the run the ledger measures.

``cpu_account.py`` wraps ``Node.compute`` from outside ``src/``. The
wrapper must schedule nothing: the same window with and without it has
to agree on every simulated result, or the account would describe a
different run than the one it is quoted next to.
"""

import pytest

import cpu_account  # puts src/ and benchmarks/ledger/ on the path
import onepass
import spec

SCALE = 0.05


def test_booking_every_charge_perturbs_nothing_and_adds_up():
    workload = spec.WORKLOAD_BY_NAME["writes_sharded"]
    account, cluster, summary = cpu_account.measure(workload, seed=1, scale=SCALE)

    plain = onepass._Pass(workload, 1, traced=False)
    start = plain.env.now + workload.warmup * SCALE
    end = start + workload.window * SCALE
    plain.loadgen.start()
    plain.env.run(until=end)
    assert summary == plain.loadgen.collector.summarize(start, end)
    assert cluster.env.steps == plain.env.steps

    rows = {
        name: cpu_account.role_rows(account, nodes, 2, summary)
        for name, nodes in cpu_account.roles(cluster)
    }
    everyone = rows["replicas"]
    assert everyone["busy_us"] == pytest.approx(
        rows["leaders"]["busy_us"] + rows["followers"]["busy_us"]
    )
    assert sum(us for us, _site in everyone["sites"]) == pytest.approx(
        everyone["busy_us"]
    )
    # A saturated sharded write is mostly crossings, and every one of
    # them is booked under its ecall name.
    assert 0.4 < everyone["per_call_share"] < 0.8
    assert any(site == "ecall handle_replica_reply" for _us, site in everyone["sites"])
    assert 0.0 < rows["leaders"]["busiest"] <= 1.0
