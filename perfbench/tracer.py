"""Outside-in span tracing of ``repro``'s layer boundaries.

A traced run replaces each function in :data:`TARGETS` with a wrapper that
counts calls and accumulates *self time*: the span's duration minus the
time covered by wrapped calls made inside it.  Nothing under ``src/`` is
edited; the wrappers are installed from the benchmark's own files.

Several ``repro`` modules bind these functions by name at import
(``engine/sweep.py`` holds ``generate_trace`` and ``run_trace_batch``,
``experiments/figures.py`` holds ``power_model_for`` and
``peak_temperature_for``, and each package ``__init__`` re-exports), so
:meth:`Tracer.install` replaces every ``repro.*`` module attribute that is
the original function, not only the defining one.  Methods are patched
on their class.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from typing import Dict, List, Tuple

#: ``(metric prefix, defining module, attribute)``; a dotted attribute is a
#: method on a class of that module.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.generate_trace", "repro.workloads.generator", "generate_trace"),
    ("uarch.kernel.decode", "repro.uarch.kernel", "decode"),
    ("uarch.kernel.branch_outcomes", "repro.uarch.kernel", "branch_outcomes"),
    ("uarch.kernel.replay_memory", "repro.uarch.kernel", "replay_memory"),
    ("uarch.kernel.simulate_core", "repro.uarch.kernel", "simulate_core"),
    ("uarch.kernel.run_trace_batch", "repro.uarch.kernel", "run_trace_batch"),
    ("uarch.multicore.run_parallel_batch", "repro.uarch.multicore",
     "run_parallel_batch"),
    ("design.derive_frequency", "repro.design.resolve", "derive_frequency"),
    ("power.power_model_for", "repro.power.core_power", "power_model_for"),
    ("power.evaluate", "repro.power.core_power", "CorePowerModel.evaluate"),
    ("thermal.solve_floorplans", "repro.thermal.grid", "solve_floorplans"),
    ("thermal.peak_temperature_for", "repro.thermal.hotspot",
     "peak_temperature_for"),
    ("engine.submit_specs", "repro.engine.sweep",
     "ExperimentEngine.submit_specs"),
    ("engine.cache.get", "repro.engine.cache", "ResultCache.get"),
    ("engine.cache.put_many", "repro.engine.cache", "ResultCache.put_many"),
    ("explore.store.append_many", "repro.explore.store",
     "ResultStore.append_many"),
    ("explore.pareto_frontier", "repro.explore.frontier", "pareto_frontier"),
    ("obs.build_manifest", "repro.obs.manifest", "build_manifest"),
    ("serve.execute_request", "repro.serve.protocol", "execute_request"),
)

#: The lookup whose ``(hit, value)`` result feeds ``engine.cache.hit_ratio``.
CACHE_GET = "engine.cache.get"


def import_all_repro() -> None:
    """Import every ``repro`` module, so each alias exists before patching."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Call counts and self time per target, safe across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._calls: Dict[str, int] = {name: 0 for name, _, _ in TARGETS}
        self._self_s: Dict[str, float] = {name: 0.0 for name, _, _ in TARGETS}
        self._cache_hits = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._originals: Dict[str, object] = {}
        #: Targets this version of ``repro`` does not define.
        self.missing: List[str] = []

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        local = self._local
        lock = self._lock
        calls = self._calls
        self_s = self._self_s
        count_hits = name == CACHE_GET
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += span
                with lock:
                    calls[name] += 1
                    self_s[name] += span - children
            if count_hits and result[0]:
                with lock:
                    self._cache_hits += 1
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target and every ``repro.*`` alias of it.

        A target this version of ``repro`` no longer defines is listed in
        :attr:`missing` and reports zeros, so a refactor that moves a
        layer does not stop the benchmark.
        """
        modules = _repro_modules()
        for name, module_name, attribute in TARGETS:
            owner_name, _, leaf = attribute.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
            except (ImportError, AttributeError):
                owner = None
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self._originals[name] = original
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, leaf, wrapper, original)
                continue
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper, original)
        return self

    def _patch(self, owner, key: str, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def unpatched_aliases(self) -> List[str]:
        """``module.attr`` names still bound to an original function."""
        originals = {id(fn) for fn in self._originals.values()}
        return [f"{module.__name__}.{key}"
                for module in _repro_modules()
                for key, value in vars(module).items()
                if id(value) in originals]

    # -- totals ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Cumulative totals so far (JSON-ready)."""
        with self._lock:
            return {
                "calls": dict(self._calls),
                "self_s": dict(self._self_s),
                "cache_hits": self._cache_hits,
                "missing": list(self.missing),
            }


def difference(final: Dict[str, object],
               mark: Dict[str, object]) -> Dict[str, object]:
    """Totals accumulated between two snapshots."""
    return {
        "calls": {name: final["calls"][name] - mark["calls"][name]
                  for name in final["calls"]},
        "self_s": {name: final["self_s"][name] - mark["self_s"][name]
                   for name in final["self_s"]},
        "cache_hits": final["cache_hits"] - mark["cache_hits"],
        "missing": final["missing"],
    }


def layer_metrics(totals: Dict[str, object]) -> Dict[str, float]:
    """``<prefix>.calls``, ``<prefix>.self_s`` and the cache hit ratio."""
    out: Dict[str, float] = {}
    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = totals["calls"][name]
        out[f"{name}.self_s"] = totals["self_s"][name]
    gets = totals["calls"][CACHE_GET]
    out["engine.cache.hit_ratio"] = totals["cache_hits"] / gets if gets else 0.0
    return out


def attributed_seconds(totals: Dict[str, object]) -> float:
    return sum(totals["self_s"].values())
