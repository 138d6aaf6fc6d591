"""Runtime cost profiles for cryptographic work.

The paper's performance crossovers hinge on one fact (Section VI-C1):
    "authenticating messages with large payload is faster in C/C++ than
     it is in Java."

We model every crypto operation as ``base + per_byte * nbytes`` seconds
of CPU time and define three profiles matching the three evaluated
stacks:

* ``JAVA``    — the baseline Hybster replica and its client-side library.
* ``CPP``     — *ctroxy*: the Troxy code outside SGX (JNI-attached).
* ``CPP_SGX`` — *etroxy*: same code inside the enclave; the crypto speed
  is identical, the SGX tax (transitions, buffer copies, paging) is
  charged separately by :mod:`repro.sgx`.

The constants are calibration parameters, not measurements of this
machine; they were tuned so the reproduced figures match the paper's
*shapes* (see EXPERIMENTS.md). They are all in one place on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpCost:
    """Linear cost model for one operation class: base + per_byte * n."""

    base: float  # seconds per operation
    per_byte: float  # seconds per payload byte

    def cost(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError(f"negative payload size: {nbytes}")
        return self.base + self.per_byte * nbytes


@dataclass(frozen=True)
class RuntimeProfile:
    """CPU cost of crypto and message handling for one runtime stack."""

    name: str
    hash: OpCost  # SHA-256 style digest
    mac: OpCost  # HMAC create/verify
    aead: OpCost  # TLS record seal/open (encrypt+MAC)
    serialize: OpCost  # message marshalling/unmarshalling

    def hash_cost(self, nbytes: int) -> float:
        return self.hash.cost(nbytes)

    def mac_cost(self, nbytes: int) -> float:
        return self.mac.cost(nbytes)

    def aead_cost(self, nbytes: int) -> float:
        return self.aead.cost(nbytes)


# Calibrated so that: HMAC over 8 KB costs ~7.4 us in Java vs ~2.1 us in
# C/C++ (3.5x gap, consistent with JCA vs OpenSSL measurements of the
# era), while small-message costs are dominated by the per-op base.
JAVA = RuntimeProfile(
    name="java",
    hash=OpCost(base=1.2e-6, per_byte=0.75e-9),
    mac=OpCost(base=1.6e-6, per_byte=0.90e-9),
    aead=OpCost(base=2.4e-6, per_byte=1.35e-9),
    serialize=OpCost(base=0.9e-6, per_byte=0.35e-9),
)

CPP = RuntimeProfile(
    name="cpp",
    hash=OpCost(base=0.4e-6, per_byte=0.20e-9),
    mac=OpCost(base=0.5e-6, per_byte=0.20e-9),
    aead=OpCost(base=0.8e-6, per_byte=0.30e-9),
    serialize=OpCost(base=0.3e-6, per_byte=0.10e-9),
)

# Inside the enclave the instruction stream is the same as CPP; the SGX
# overhead (ecall transitions, buffer copies, EPC paging) is modelled by
# repro.sgx.enclave and charged on top of these costs.
CPP_SGX = RuntimeProfile(
    name="cpp_sgx",
    hash=CPP.hash,
    mac=CPP.mac,
    aead=CPP.aead,
    serialize=CPP.serialize,
)

PROFILES = {p.name: p for p in (JAVA, CPP, CPP_SGX)}


def profile(name: str) -> RuntimeProfile:
    """Look up a runtime profile by name (``java``/``cpp``/``cpp_sgx``)."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown runtime profile {name!r}; choose from {sorted(PROFILES)}"
        ) from None
