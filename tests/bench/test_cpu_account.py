"""The simulated-CPU account describes the run it observes.

``_CpuAccount`` books the ``node.compute`` events of the probe bus. It
must schedule nothing, so a cell with and without it agrees on every
simulated result, and every charge must land under the call site that
made it.
"""

import pytest

from repro.bench.experiments import _CpuAccount, _run_system, write_source


def _sharded_cell(obs):
    return _run_system(
        "etroxy", write_source(256, key_space=16), reply_size=10, n_clients=8,
        warmup=0.002, duration=0.006, seed=1, shards=2, obs=obs,
    )


def test_booking_every_charge_perturbs_nothing_and_adds_up():
    account = _CpuAccount(warmup=0.002, duration=0.006)
    cluster, summary = _sharded_cell(account)
    plain, plain_summary = _sharded_cell(None)
    assert summary == plain_summary
    assert (cluster.env.steps, cluster.env.scheduled_events) == (
        plain.env.steps, plain.env.scheduled_events
    )

    replicas = {replica.node.name for replica in cluster.replicas}
    leaders = {group.leader.node.name for group in cluster.groups}
    everyone = account.role(replicas, summary)
    assert everyone["busy_us"] == pytest.approx(
        account.role(leaders, summary)["busy_us"]
        + account.role(replicas - leaders, summary)["busy_us"]
    )
    sites = [site for _us, site in everyone["sites"]]
    assert sum(us for us, _site in everyone["sites"]) == pytest.approx(everyone["busy_us"])
    assert "ecall handle_replica_reply" in sites
    # The label is the charging frame's, never the bus's own machinery.
    assert not [site for site in sites if site.split(".")[0] in ("network", "probe")]
    assert 0.0 < everyone["per_call_share"] < 1.0
