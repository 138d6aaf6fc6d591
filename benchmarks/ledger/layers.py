"""Bucket a cProfile run by layer (this repo's packages).

Self-time of a ``repro`` function belongs to the layer its module lives
in. Self-time of everything else — builtins (``heappush``, ``hmac``,
``hashlib``), stdlib helpers, generator plumbing — is work some layer
asked for, so it is credited to the nearest ``repro`` callers through
the profile's caller table, split in proportion to the time each caller
accounts for. The benchmark's own files (op source, history recorder)
count as ``workloads``: they are load generation.
"""

from __future__ import annotations

import os
import pstats

from spec import LAYERS

_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
_SIM_MODULES = {"network.py": "sim.network", "resources.py": "sim.resources"}


def layer_of(filename: str):
    """Layer owning ``filename``, or None for builtins and the stdlib."""
    path = filename.replace(os.sep, "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "workloads" if path.startswith(_LEDGER_DIR) else None
    parts = path[marker + len("/repro/"):].split("/")
    if parts[0] == "sim":
        return _SIM_MODULES.get(parts[-1], "sim.engine")
    return parts[0] if parts[0] in LAYERS else "other"


def bucket(profile) -> dict:
    """Per-layer ``{"self_s", "calls"}`` plus the named call counts.

    ``calls`` counts calls of functions *defined* in the layer (it
    repeats exactly per seed); ``self_s`` includes credited builtin and
    stdlib time (host clock).
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    shares_memo: dict = {}

    def shares(func, trail=()) -> dict:
        """layer -> share of ``func``'s self-time it is accountable for."""
        if func in shares_memo:
            return shares_memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = {
                caller: edge[2]  # the callee's self-time under this caller
                for caller, edge in stats[func][4].items()
                if caller not in trail and caller != func and caller in stats
            }
            total = sum(callers.values())
            result = {}
            if total > 0:
                for caller, weight in callers.items():
                    for name, part in shares(caller, trail + (func,)).items():
                        result[name] = result.get(name, 0.0) + part * weight / total
            if not result:
                result = {"other": 1.0}
        if not trail:  # only memoize results computed without a cut cycle
            shares_memo[func] = result
        return result

    layers = {name: {"self_s": 0.0, "calls": 0} for name in (*LAYERS, "other")}
    named = {"mac": 0, "digest": 0, "tls": 0}
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        filename, _line, name = func
        own = layer_of(filename)
        if own is not None:
            layers[own]["calls"] += ncalls
        for layer, part in shares(func).items():
            layers[layer]["self_s"] += tottime * part
        if filename.endswith("crypto/primitives.py"):
            # verify() signs internally, so sign calls are all MAC ops.
            if name == "sign":
                named["mac"] += ncalls
            elif name in ("digest_of", "sha256"):
                named["digest"] += ncalls
        elif filename.endswith("crypto/tls.py") and name in ("seal", "open"):
            named["tls"] += ncalls
    return {"layers": layers, "named_calls": named}
