"""Simulated SGX enclaves (performance + isolation model).

The paper's etroxy numbers are shaped by three SGX effects (Section V-A):

1. **Transitions** — every ecall flushes the TLB, switches stacks and
   copies parameters; "it is best practice to minimize enclave
   transitions". We charge a fixed cost per boundary crossing plus a
   per-byte cost for buffers copied into the enclave (read buffers are
   *always* copied in, to prevent TOCTTOU; write buffers are copied
   outside, cheaper).
2. **EPC paging** — enclave memory beyond the ~93 MB usable Enclave Page
   Cache is encrypted and evicted; touching it costs dearly. We track the
   resident set and charge per evicted/loaded page.
3. **Isolation** — the untrusted host can only reach enclave state
   through the registered ecall table, and a reboot wipes volatile state
   (the fast-read cache) while sealed state (counters) survives.

`JniBoundary` models the cheaper Java-Native-Interface crossing used by
*ctroxy* (Troxy code in C/C++ but outside SGX) and by Hybster's own
trusted subsystem calls.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..crypto.primitives import sha256
from ..sim.network import Node
from ..sim.probe import Probe

PAGE_SIZE = 4096
EPC_USABLE_BYTES = 93 * 1024 * 1024  # usable part of the 128 MB EPC


@dataclass(frozen=True)
class BoundaryCosts:
    """CPU cost of crossing a protection boundary."""

    per_call: float  # seconds per crossing (entry + exit)
    copy_in_per_byte: float  # buffers copied into the trusted side
    copy_out_per_byte: float  # buffers copied out (done outside for SGX)

    def cost(self, bytes_in: int, bytes_out: int) -> float:
        if bytes_in < 0 or bytes_out < 0:
            raise ValueError("negative buffer size")
        return (
            self.per_call
            + self.copy_in_per_byte * bytes_in
            + self.copy_out_per_byte * bytes_out
        )


SGX_ECALL = BoundaryCosts(per_call=7.0e-6, copy_in_per_byte=1.00e-9, copy_out_per_byte=0.30e-9)
JNI_CALL = BoundaryCosts(per_call=3.0e-6, copy_in_per_byte=0.05e-9, copy_out_per_byte=0.05e-9)
NO_BOUNDARY = BoundaryCosts(per_call=0.0, copy_in_per_byte=0.0, copy_out_per_byte=0.0)

EPC_PAGING_COST_PER_PAGE = 20e-6  # encrypt + evict + load one 4 KB page


@dataclass
class EnclaveStats:
    """Observable counters for tests and ablation benchmarks."""

    ecalls: int = 0
    bytes_copied_in: int = 0
    bytes_copied_out: int = 0
    pages_swapped: int = 0
    reboots: int = 0


class EnclaveViolation(Exception):
    """The untrusted host attempted something the boundary forbids."""


class Enclave:
    """A trusted execution environment attached to one node.

    Trusted components (Troxy core, trusted counters) are *installed*
    into the enclave; the untrusted host may only reach them through
    ecalls declared in the interface table, paying the boundary cost.
    """

    def __init__(
        self,
        node: Node,
        name: str,
        code_identity: str,
        costs: BoundaryCosts = SGX_ECALL,
        epc_bytes: int = EPC_USABLE_BYTES,
        paging_cost_per_page: float = EPC_PAGING_COST_PER_PAGE,
        probe: Optional[Probe] = None,
    ):
        self.node = node
        self.name = name
        self.measurement = sha256(code_identity.encode("utf-8"))
        self.costs = costs
        # Boundary-cost scalars unpacked once: ecall() charges them on
        # every crossing and attribute-chasing the frozen dataclass per
        # call shows up in profiles (see docs/PERFORMANCE.md).
        self._per_call = costs.per_call
        self._copy_in_per_byte = costs.copy_in_per_byte
        self._copy_out_per_byte = costs.copy_out_per_byte
        self.epc_bytes = epc_bytes
        self.paging_cost_per_page = paging_cost_per_page
        self.stats = EnclaveStats()
        self._ecalls: dict[str, Callable] = {}
        self._resident_bytes = 0
        self._reboot_hooks: list[Callable[[], None]] = []
        # Every crossing is reported here (``enclave.ecall``, with the
        # arguments as its subject): spans, metrics and the fault plane's
        # per-replica ecall count all read this one emission.
        self.probe = probe if probe is not None else Probe(node.env)

    # -- interface table -----------------------------------------------------

    def register_ecall(self, name: str, fn: Callable) -> None:
        """Declare an entry point; mirrors the prototype's 16-ecall table."""
        if name in self._ecalls:
            raise ValueError(f"duplicate ecall {name!r}")
        # Whether the entry point does trusted compute (is a generator
        # function) is static; deciding it here spares ecall() a hasattr
        # probe on every crossing.
        self._ecalls[name] = (fn, inspect.isgeneratorfunction(fn))

    @property
    def ecall_names(self) -> tuple[str, ...]:
        return tuple(self._ecalls)

    def ecall(self, name: str, *args, bytes_in: int = 0, bytes_out: int = 0):
        """Process generator: cross into the enclave and run ``name``.

        Charges the transition + copy cost on the node's CPU, then invokes
        the registered function. If the function is itself a generator
        (it does trusted compute via ``node.compute``), it is driven to
        completion; its return value is the ecall result.

        Usage::

            result = yield from enclave.ecall("verify_reply", reply,
                                              bytes_in=reply.wire_size)
        """
        entry = self._ecalls.get(name)
        if entry is None:
            raise EnclaveViolation(f"no such ecall: {name!r}")
        fn, isgen = entry
        if bytes_in < 0 or bytes_out < 0:
            raise ValueError("negative buffer size")
        stats = self.stats
        stats.ecalls += 1
        stats.bytes_copied_in += bytes_in
        stats.bytes_copied_out += bytes_out
        cost = (
            self._per_call
            + self._copy_in_per_byte * bytes_in
            + self._copy_out_per_byte * bytes_out
        )
        probe = self.probe
        token = None
        if probe.on:
            token = probe.begin(
                "enclave.ecall", self.node.name, args, enclave=self.name,
                ecall=name, bytes_in=bytes_in, bytes_out=bytes_out,
            )
        try:
            if cost > 0:
                yield from self.node.compute(cost)
            result = fn(*args)
            if isgen or hasattr(result, "__next__"):
                result = yield from result
        finally:
            if token is not None:
                probe.end(token)
        return result

    # -- memory / paging ------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative allocation")
        self._resident_bytes += nbytes

    def free(self, nbytes: int) -> None:
        self._resident_bytes = max(0, self._resident_bytes - nbytes)

    def touch(self, nbytes: int):
        """Process generator: charge EPC paging if the working set spills.

        A simple fractional model: when resident memory exceeds the EPC,
        the probability that a touched page is non-resident equals the
        spill fraction, and each such page costs one evict+load cycle.
        """
        if self._resident_bytes <= self.epc_bytes or nbytes <= 0:
            return
            yield  # pragma: no cover - generator marker
        spill_fraction = 1.0 - self.epc_bytes / self._resident_bytes
        pages = max(1, nbytes // PAGE_SIZE)
        swapped = max(1, int(pages * spill_fraction))
        self.stats.pages_swapped += swapped
        yield from self.node.compute(swapped * self.paging_cost_per_page)

    # -- lifecycle ------------------------------------------------------------

    def on_reboot(self, hook: Callable[[], None]) -> None:
        """Register a volatile-state reset hook (e.g. cache.clear)."""
        self._reboot_hooks.append(hook)

    def reboot(self) -> None:
        """Rollback attack / power cycle: volatile state is lost.

        Sealed state (see :mod:`repro.sgx.sealed`) survives by design,
        which is exactly why the paper's counter-based ordering stays safe
        while the fast-read cache simply starts cold (Section IV-B).
        """
        self.stats.reboots += 1
        self._resident_bytes = 0
        for hook in self._reboot_hooks:
            hook()


def null_enclave(node: Node, name: str, probe: Optional[Probe] = None) -> Enclave:
    """An 'enclave' with zero-cost boundary: plain in-process library."""
    return Enclave(node, name, code_identity=f"null:{name}", costs=NO_BOUNDARY, probe=probe)


def jni_enclave(
    node: Node, name: str, code_identity: str = "", probe: Optional[Probe] = None
) -> Enclave:
    """Trusted code reached over JNI but outside SGX (the ctroxy setup)."""
    return Enclave(
        node, name, code_identity=code_identity or f"jni:{name}", costs=JNI_CALL, probe=probe
    )
