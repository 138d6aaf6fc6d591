"""Ablation — the paper's enclave-memory optimization (Section V-A).

"Accessing memory beyond the size of the EPC results in costly paging
... to avoid additional ocalls and paging, the Troxy can store data in
an encrypted manner outside the enclave [validated] against a hash
securely stored inside."

We shrink the EPC to make a hot cache of large replies spill, then
compare reads with the cache stored inside the enclave (paging) versus
outside (hash validation only).
"""

from repro.bench.experiments import TINY_EPC

from .tables import row


def placement(label: str) -> tuple[float, float, float]:
    """(op/s, pages swapped, peak enclave-resident bytes)."""
    tput, pages, resident_kib = row("ablation_epc", label)
    return tput, pages, resident_kib * 1024


def test_ablation_epc_cache_placement():
    outside_tput, outside_pages, outside_resident = placement("outside (hash inside)")
    inside_tput, inside_pages, inside_resident = placement("inside (EPC paging)")

    # Storing full replies inside blows the EPC and pays paging...
    assert inside_resident > TINY_EPC
    assert inside_pages > 0
    # ...while the outside variant keeps the enclave footprint tiny...
    assert outside_resident < TINY_EPC
    assert outside_pages == 0
    # ...and is the faster configuration (the paper's design choice).
    assert outside_tput > inside_tput
