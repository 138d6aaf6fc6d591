"""Unit tests for the enclave boundary model."""

import dataclasses

import pytest

from repro.sim import Environment, Network, RngTree
from repro.sgx import (
    JNI_CALL,
    SGX_ECALL,
    BoundaryCosts,
    Enclave,
    EnclaveViolation,
    jni_enclave,
    null_enclave,
)


def make_enclave(**kwargs):
    env = Environment()
    net = Network(env, rng_tree=RngTree(1))
    node = net.add_node("replica-0")
    enclave = Enclave(node, "troxy-0", code_identity="troxy-v1", **kwargs)
    return env, node, enclave


def run_ecall(env, enclave, name, *args, **kwargs):
    results = []

    def proc():
        result = yield from enclave.ecall(name, *args, **kwargs)
        results.append((env.now, result))

    env.process(proc())
    env.run()
    return results[0]


def test_ecall_invokes_registered_function():
    env, node, enclave = make_enclave()
    enclave.register_ecall("add", lambda a, b: a + b)
    _, result = run_ecall(env, enclave, "add", 2, 3)
    assert result == 5


def test_unregistered_ecall_rejected():
    env, node, enclave = make_enclave()

    def proc():
        yield from enclave.ecall("steal_key")

    env.process(proc())
    with pytest.raises(EnclaveViolation):
        env.run()


def test_duplicate_ecall_name_rejected():
    env, node, enclave = make_enclave()
    enclave.register_ecall("f", lambda: None)
    with pytest.raises(ValueError):
        enclave.register_ecall("f", lambda: None)


def test_ecall_charges_transition_cost():
    env, node, enclave = make_enclave()
    enclave.register_ecall("noop", lambda: None)
    time, _ = run_ecall(env, enclave, "noop")
    assert time == pytest.approx(SGX_ECALL.per_call)


def test_ecall_charges_copy_costs():
    env, node, enclave = make_enclave()
    enclave.register_ecall("noop", lambda: None)
    time, _ = run_ecall(env, enclave, "noop", bytes_in=8192, bytes_out=4096)
    expected = SGX_ECALL.cost(8192, 4096)
    assert time == pytest.approx(expected)
    assert enclave.stats.bytes_copied_in == 8192
    assert enclave.stats.bytes_copied_out == 4096


def test_generator_ecall_driven_to_completion():
    env, node, enclave = make_enclave()

    def trusted_work():
        yield from node.compute(1e-3)
        return "done"

    enclave.register_ecall("work", trusted_work)
    time, result = run_ecall(env, enclave, "work")
    assert result == "done"
    assert time == pytest.approx(SGX_ECALL.per_call + 1e-3)


def test_ecall_stats_count():
    env, node, enclave = make_enclave()
    enclave.register_ecall("noop", lambda: None)
    run_ecall(env, enclave, "noop")
    assert enclave.stats.ecalls == 1


@pytest.mark.parametrize("sizes", [dict(bytes_in=-1), dict(bytes_out=-1)])
def test_rejected_crossing_is_not_counted(sizes):
    env, node, enclave = make_enclave()
    enclave.register_ecall("noop", lambda: None)
    run_ecall(env, enclave, "noop", bytes_in=64, bytes_out=32)
    before = dataclasses.replace(enclave.stats)

    def proc():
        yield from enclave.ecall("noop", **sizes)

    env.process(proc())
    with pytest.raises(ValueError, match="negative buffer size"):
        env.run()
    assert enclave.stats == before


def test_jni_boundary_cheaper_than_sgx():
    assert JNI_CALL.cost(1024, 1024) < SGX_ECALL.cost(1024, 1024)


def test_null_enclave_costs_nothing():
    env = Environment()
    net = Network(env, rng_tree=RngTree(1))
    node = net.add_node("n")
    enclave = null_enclave(node, "lib")
    enclave.register_ecall("noop", lambda: None)
    time, _ = run_ecall(env, enclave, "noop", bytes_in=100000)
    assert time == 0.0


def test_jni_enclave_has_measurement():
    env = Environment()
    net = Network(env, rng_tree=RngTree(1))
    node = net.add_node("n")
    enclave = jni_enclave(node, "ctroxy")
    assert len(enclave.measurement) == 32


def test_measurement_depends_on_code_identity():
    _, _, e1 = make_enclave()
    env = Environment()
    net = Network(env, rng_tree=RngTree(1))
    node = net.add_node("other")
    e2 = Enclave(node, "troxy-x", code_identity="troxy-v2-evil")
    assert e1.measurement != e2.measurement


def test_memory_within_epc_is_free():
    env, node, enclave = make_enclave()
    enclave.allocate(1024 * 1024)
    times = []

    def proc():
        yield from enclave.touch(1024 * 1024)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [0.0]


def test_memory_beyond_epc_pays_paging():
    env, node, enclave = make_enclave(epc_bytes=1024 * 1024)
    enclave.allocate(4 * 1024 * 1024)
    times = []

    def proc():
        yield from enclave.touch(1024 * 1024)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times[0] > 0.0
    assert enclave.stats.pages_swapped > 0


def test_free_reduces_resident_set():
    env, node, enclave = make_enclave()
    enclave.allocate(1000)
    enclave.free(400)
    assert enclave.resident_bytes == 600
    enclave.free(10_000)
    assert enclave.resident_bytes == 0


def test_negative_allocation_rejected():
    env, node, enclave = make_enclave()
    with pytest.raises(ValueError):
        enclave.allocate(-1)


def test_reboot_runs_hooks_and_resets_memory():
    env, node, enclave = make_enclave()
    wiped = []
    enclave.on_reboot(lambda: wiped.append(True))
    enclave.allocate(5000)
    enclave.reboot()
    assert wiped == [True]
    assert enclave.resident_bytes == 0
    assert enclave.stats.reboots == 1


def test_boundary_cost_validation():
    costs = BoundaryCosts(1e-6, 1e-9, 1e-9)
    with pytest.raises(ValueError):
        costs.cost(-1, 0)
