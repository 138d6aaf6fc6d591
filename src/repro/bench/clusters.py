"""Re-export of :mod:`repro.deploy`, where deployments are built.

Kept only because benchmarks/ledger/onepass.py imports ``build_troxy``
from here and the ledger directory is frozen; import from
``repro.deploy`` (or ``repro``) everywhere else.
"""

from ..deploy import build_troxy

__all__ = ["build_troxy"]
