"""Ablation D5 — what the enclave boundary itself costs.

Sweeps the protection boundary of the *same* Troxy code: none (plain
in-process library), JNI (ctroxy), SGX (etroxy), on the 256 B ordered
write workload where transitions dominate. Separates the cost of the
Troxy *concept* (extra protocol phases; visible with boundary "none")
from the cost of *trusting* it (SGX transitions/copies).
"""

from .tables import row


def test_ablation_sgx_boundary():
    # (op/s, ecalls per completed request) per cell
    baseline, _ = row("ablation_sgx", "baseline (no troxy)")
    free, _ = row("ablation_sgx", "troxy boundary=none")
    jni, _ = row("ablation_sgx", "troxy boundary=jni")
    sgx, sgx_ecalls = row("ablation_sgx", "troxy boundary=sgx")

    # The boundary sweep orders exactly as the hardware gets stricter.
    assert free >= jni >= sgx
    # The relocation *concept* is nearly free (its extra phases are
    # offset by spreading client handling over all replicas): with a
    # zero-cost boundary, Troxy lands within ~10 % of the baseline.
    assert abs(free - baseline) < 0.12 * baseline
    # The bulk of etroxy's 256 B loss is the protection boundary itself.
    assert (baseline - sgx) > 1.5 * (baseline - jni)
    # The ecall budget per request stays small (transition-minimized).
    assert sgx_ecalls <= 10
