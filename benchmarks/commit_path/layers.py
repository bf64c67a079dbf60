"""Self time by layer, read off a ``cProfile`` run from outside.

A layer is a ``repro`` package (``core`` is split by module, see
:data:`CORE_MODULES`).  Every profiled function's own time
(``tottime``) lands in exactly one row:

* a function defined under ``src/repro`` goes to its package's layer;
* a stdlib / builtin / numpy function is charged to the nearest
  ``repro`` caller, found by walking ``pstats`` caller edges upwards
  and splitting by the self time each edge carried;
* what has no ``repro`` caller at all (the profiler's own frames, the
  benchmark driver) is ``runtime``; what only reaches itself through
  a call cycle is ``other``.

So the rows sum to the profiled total by construction.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

Func = Tuple[str, int, str]

#: ``repro.core`` modules that are not the programming model itself.
CORE_MODULES = {
    "likelihood": "core.likelihood",
    "histograms": "core.likelihood",
    "protocol_models": "core.likelihood",
    "admission": "core.admission",
    "statistics": "core.statistics",
    "dissemination": "core.statistics",
}
#: Packages with a row of their own; the rest of ``repro`` (``check``
#: fault scripts, ``scenarios``, ``baseline``) is experiment rig.
PACKAGES = ("sim", "net", "paxos", "storage", "mdcc", "workload", "obs",
            "harness")
LAYERS = ("sim", "net", "paxos", "storage", "mdcc", "core.transaction",
          "core.likelihood", "core.admission", "core.statistics",
          "workload", "obs", "harness", "runtime", "other")


def layer_of(filename: str, package_root: str) -> Optional[str]:
    """The layer owning ``filename``, or None outside ``package_root``
    (the directory of ``repro/__init__.py``)."""
    if not filename.startswith(package_root + os.sep):
        return None
    below = filename[len(package_root) + 1:].split(os.sep)
    if len(below) < 2:
        return "harness"
    package = below[0]
    if package == "core":
        module = below[1].rsplit(".", 1)[0]
        return CORE_MODULES.get(module, "core.transaction")
    return package if package in PACKAGES else "harness"


def layer_seconds(stats: pstats.Stats,
                  package_root: str) -> Dict[str, float]:
    """Profiled self seconds per layer; the values sum to the total."""
    table = stats.stats  # type: ignore[attr-defined]
    owners: Dict[Func, Dict[str, float]] = {}

    def owner_shares(func: Func, walking: frozenset) -> Dict[str, float]:
        """Fractions (summing to 1) of a non-repro function's time."""
        known = owners.get(func)
        if known is not None:
            return known
        callers = table[func][4] if func in table else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if not any(weights.values()):
            weights = {caller: float(edge[0]) or 1.0
                       for caller, edge in callers.items()}
        total = sum(weights.values())
        path = walking | {func}
        shares: Dict[str, float] = {}
        if not callers:
            shares["runtime"] = 1.0
        for caller, weight in weights.items():
            fraction = weight / total
            layer = layer_of(caller[0], package_root)
            if layer is not None:
                shares[layer] = shares.get(layer, 0.0) + fraction
            elif caller in path:
                shares["other"] = shares.get("other", 0.0) + fraction
            else:
                for name, part in owner_shares(caller, path).items():
                    shares[name] = shares.get(name, 0.0) + fraction * part
        if not walking:
            # Only a walk that started here saw all of its callers.
            owners[func] = shares
        return shares

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        layer = layer_of(func[0], package_root)
        if layer is not None:
            seconds[layer] += tottime
            continue
        for name, part in owner_shares(func, frozenset()).items():
            seconds[name] += tottime * part
    return seconds


def shares(seconds: Dict[str, float]) -> Dict[str, float]:
    """Layer seconds as points of 100."""
    total = sum(seconds.values())
    return {layer: 100.0 * value / total for layer, value in seconds.items()}
