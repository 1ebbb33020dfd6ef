"""The shared experiment engine: memoized, parallel sweep execution.

All figure/table sweeps funnel through one :class:`ExperimentEngine`.
Each (application, configuration) simulation is described by a
:class:`SimSpec`; the engine looks every spec up in the result cache,
fans the misses out across worker processes (``jobs > 1``) or runs them
inline (``jobs == 1``), and returns results in submission order — so a
parallel sweep is bit-identical to a serial one.

Trace generation is memoized per process (one trace per
``(profile, uops, seed)`` no matter how many configurations consume it),
and simulation results are memoized across sweeps: figure6, figure7 and
figure8 together cost *one* single-core sweep, figure9 and figure10 one
multicore sweep.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.configs import CoreConfig
from repro.design.resolve import (
    paper_multicore_configs,
    paper_single_core_configs,
)
from repro.engine import pool as worker_pool
from repro.engine.cache import ResultCache, make_key
from repro.lru import LruMemo
from repro.obs.record import current_record
from repro.uarch.kernel import kernel_enabled, run_trace_batch
from repro.uarch.multicore import MulticoreResult, run_parallel_batch, \
    run_parallel_tiles
from repro.uarch.ooo import SimResult, run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.parallel import parallel_profiles
from repro.workloads.profiles import AppProfile
from repro.workloads.spec import spec_profiles


@dataclasses.dataclass(frozen=True)
class SimSpec:
    """One unit of simulation work: an (app, config) pair.

    ``mode`` is ``"single"`` (one core, ``uops`` measured micro-ops) or
    ``"multicore"`` (``uops`` is the total work across all cores).
    """

    mode: str
    config: CoreConfig
    profile: AppProfile
    uops: int
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.mode not in ("single", "multicore"):
            raise ValueError(f"unknown SimSpec mode {self.mode!r}")

    def cache_key(self) -> str:
        return self._cache_key

    @functools.cached_property
    def _cache_key(self) -> str:
        # Once per instance: the fields are frozen, so the key cannot
        # change, and a spec submitted again skips ``make_key``.
        return make_key(
            f"sim:{self.mode}",
            config=self.config,
            profile=self.profile,
            uops=self.uops,
            seed=self.seed,
        )


# -- worker-side execution ----------------------------------------------------

#: Per-process trace memo: every configuration sweeping the same app reuses
#: one generated trace (bounded; traces are a few MB each at most).
#: Keys are content keys over the *full* profile — two profiles that share
#: a name but differ in any field (ablation sweeps build such variants
#: with ``dataclasses.replace``) must never share a trace.
_TRACE_MEMO = LruMemo(cap=8)


def _trace_for(profile: AppProfile, uops: int, seed: int):
    key = make_key("trace", profile=profile, uops=uops, seed=seed)
    return _TRACE_MEMO.get(
        key, lambda: generate_trace(profile, uops, seed=seed)
    )


def execute_spec(spec: SimSpec):
    """Run one spec to completion (in this process), via the scalar
    oracle path (``OutOfOrderCore.run`` / ``run_parallel_tiles``)."""
    if spec.mode == "single":
        trace = _trace_for(spec.profile, spec.uops, spec.seed)
        return run_trace(spec.config, trace)
    return run_parallel_tiles([spec.config] * spec.config.num_cores,
                              spec.profile, spec.uops, seed=spec.seed)


def execute_spec_group(specs: Sequence[SimSpec]):
    """Run a group of specs sharing one (mode, profile, uops, seed).

    Every group, one spec or many, goes through the batched SoA kernel —
    one trace decode, one cache/predictor replay per geometry, per-config
    timing only — unless ``$REPRO_KERNEL=0`` selects the scalar oracle.
    Returns ``(results, used_kernel)``; results are in spec order and
    identical either way (the kernel is cycle-exact against the oracle).
    """
    first = specs[0]
    if kernel_enabled():
        configs = [spec.config for spec in specs]
        if first.mode == "single":
            trace = _trace_for(first.profile, first.uops, first.seed)
            return run_trace_batch(configs, trace), True
        return run_parallel_batch(configs, first.profile, first.uops,
                                  seed=first.seed), True
    return [execute_spec(spec) for spec in specs], False


def _timed_execute_unit(specs: Sequence[SimSpec]):
    """Worker-side wrapper for one work unit, a list of specs sharing
    one trace: ``(results, seconds, used_kernel)``.  The worker derives
    the trace, decode and replays itself, so a unit is self-contained
    and a crash retry simply resubmits it."""
    start = time.perf_counter()
    results, used_kernel = execute_spec_group(specs)
    return results, time.perf_counter() - start, used_kernel


def suite_specs(mode: str, uops: int, seed: int,
                configs: Sequence[CoreConfig],
                profiles: Sequence[AppProfile]) -> List[SimSpec]:
    """The canonical spec list for a (configs x profiles) suite sweep.

    One ordering for every caller — ``single_core_runs``,
    ``multicore_runs`` and the design-sweep submit path — so a batch
    built here is bit-identical (cache keys, result order, telemetry)
    no matter which entry point requested it.
    """
    return [
        SimSpec(mode, config, profile, uops, seed)
        for profile in profiles
        for config in configs
    ]


def _group_missing(specs: Sequence[SimSpec],
                   missing: Sequence[int]) -> List[List[int]]:
    """Partition cache-missing spec indices into kernel batch groups.

    Specs that share (mode, profile, uops, seed) — i.e. the same trace —
    differ only in configuration and can be evaluated in one kernel
    call.  Group order follows first appearance, so results stay
    deterministic.
    """
    groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
    for index in missing:
        spec = specs[index]
        key = (spec.mode, spec.profile, spec.uops, spec.seed)
        groups.setdefault(key, []).append(index)
    return list(groups.values())


# -- in-flight batches --------------------------------------------------------

class PendingSpecs:
    """One in-flight ``run_specs`` batch: futures in the worker pool.

    Returned by :meth:`ExperimentEngine.submit_specs`.  While the pool
    evaluates the units, the submitting thread is free to do other work
    (expand the next explore chunk, post-process the previous one, write
    stores); :meth:`result` then blocks on the futures and finishes the
    batch — cache stores, telemetry, deterministic spec-order assembly —
    on the calling thread, so no engine state is ever touched
    concurrently.  Batches submitted with ``jobs == 1`` (or a single
    work unit) are executed eagerly and come back already resolved.
    """

    def __init__(self, engine: "ExperimentEngine",
                 specs: Sequence[SimSpec], keys: List[str],
                 results: List[object], missing: List[int],
                 use_cache: bool, batch_start: float, workers: int,
                 unit_indices: List[List[int]],
                 units: List[List[SimSpec]], futures: List[object], lease,
                 timed: Optional[List[tuple]] = None) -> None:
        self._engine = engine
        self._specs = specs
        self._keys = keys
        self._results = results
        self._missing = missing
        self._use_cache = use_cache
        self._batch_start = batch_start
        self._workers = workers
        self._unit_indices = unit_indices
        self._units = units
        self._futures = futures
        self._lease = lease
        self._timed = timed
        self._cleaned = not futures
        self._final: Optional[List[object]] = None

    @property
    def done(self) -> bool:
        return self._final is not None

    def result(self) -> List[object]:
        """Wait for the batch and return results in spec order.

        Idempotent; the first call performs the cache stores and
        telemetry recording.  A worker crash (:class:`BrokenProcessPool`)
        respawns the pool and resubmits each lost unit once — see
        :mod:`repro.engine.pool`.
        """
        if self._final is not None:
            return self._final
        if self._timed is None:
            try:
                self._timed = [
                    self._lease.resolve(future, _timed_execute_unit,
                                        (unit,))
                    for unit, future in zip(self._units, self._futures)
                ]
            finally:
                self._cleanup()
        self._final = self._engine._finish_batch(
            specs=self._specs, keys=self._keys, results=self._results,
            missing=self._missing, use_cache=self._use_cache,
            batch_start=self._batch_start, workers=self._workers,
            unit_indices=self._unit_indices, timed=self._timed,
        )
        return self._final

    def abandon(self) -> None:
        """Best-effort cleanup without waiting for results.

        Cancels whatever has not started and releases the pool lease
        (idempotent).  Units already running in workers finish on their
        own and are discarded.
        """
        for future in self._futures:
            future.cancel()
        self._cleanup()

    def _cleanup(self) -> None:
        if self._cleaned:
            return
        self._cleaned = True
        if self._lease is not None:
            self._lease.close()


# -- the engine ---------------------------------------------------------------

class ExperimentEngine:
    """Cached, optionally parallel executor for experiment sweeps."""

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 cache_dir: Optional[os.PathLike] = None) -> None:
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else ResultCache(cache_dir)

    # -- batch execution ------------------------------------------------------

    def run_specs(self, specs: Sequence[SimSpec],
                  use_cache: bool = True) -> List[object]:
        """Execute a batch of specs; results come back in spec order.

        Cached specs are served without simulating; the misses are
        grouped by shared trace and each group runs through the batched
        SoA kernel — inline (``jobs == 1``) or across a process pool
        (one group, or one shard of a group, per work unit) — then lands
        in the cache for the sweeps that follow.  Every batch leaves its
        telemetry in the active :class:`~repro.obs.record.RunRecord`, if
        one is open (hit/miss split, kernel batch widths and fallbacks,
        per-spec wall time — a unit's time split evenly over its specs —
        and aggregated pipeline stall counters).

        ``use_cache=False`` bypasses the result cache in both directions
        (no lookups, no stores): every spec is simulated fresh.  The
        golden layer's differential oracles use this to guarantee that a
        serial-vs-parallel or kernel-vs-oracle comparison exercises two
        real executions rather than one execution and one cache hit.
        """
        return self.submit_specs(specs, use_cache=use_cache).result()

    def submit_specs(self, specs: Sequence[SimSpec],
                     use_cache: bool = True) -> PendingSpecs:
        """Start a batch of specs and return a :class:`PendingSpecs`.

        Cache lookups, trace grouping and unit planning happen here on
        the calling thread; the units themselves are submitted to the
        shared persistent worker pool (:mod:`repro.engine.pool`) when
        ``jobs > 1`` and more than one unit exists, so the caller can
        overlap its own work — expanding the next chunk, committing the
        previous one — with the evaluation.  With ``jobs == 1`` (or a
        single unit) the batch executes eagerly and the returned pending
        is already resolved.

        Cache stores and telemetry land at :meth:`PendingSpecs.result`
        time, on the resolving thread and in the record active there; a
        spec submitted twice before the first batch resolves is
        therefore evaluated twice (pipelined callers deduplicate up
        front, as ``repro.explore`` does).
        """
        batch_start = time.perf_counter()
        keys = [spec.cache_key() for spec in specs]
        results: List[object] = [None] * len(specs)
        missing: List[int] = []
        if use_cache:
            for index, key in enumerate(keys):
                hit, value = self.cache.get(key)
                if hit:
                    results[index] = value
                else:
                    missing.append(index)
        else:
            missing = list(range(len(specs)))
        workers = 1
        unit_indices: List[List[int]] = []
        timed: List[tuple] = []
        if missing:
            # Specs sharing a trace form one kernel batch: a group of N
            # configs costs one decode + one replay per geometry + N
            # timing passes instead of N full scalar simulations.  With
            # spare workers, wide single-core groups are also sharded
            # across the pool.
            unit_indices = self._plan_units(
                specs, _group_missing(specs, missing)
            )
            units = [[specs[i] for i in indices] for indices in unit_indices]
            if self.jobs > 1 and len(units) > 1:
                workers = min(self.jobs, len(units))
                lease = worker_pool.PoolLease(workers)
                try:
                    futures = [
                        lease.submit(_timed_execute_unit, unit)
                        for unit in units
                    ]
                except BaseException:
                    lease.close()
                    raise
                return PendingSpecs(
                    self, specs, keys, results, missing, use_cache,
                    batch_start, workers, unit_indices, units, futures,
                    lease,
                )
            timed = [_timed_execute_unit(unit) for unit in units]
        final = self._finish_batch(
            specs=specs, keys=keys, results=results, missing=missing,
            use_cache=use_cache, batch_start=batch_start, workers=workers,
            unit_indices=unit_indices, timed=timed,
        )
        pending = PendingSpecs(
            self, specs, keys, results, missing, use_cache, batch_start,
            workers, unit_indices, [], [], None, timed=timed,
        )
        pending._final = final
        return pending

    def _finish_batch(self, *, specs: Sequence[SimSpec], keys: List[str],
                      results: List[object], missing: List[int],
                      use_cache: bool, batch_start: float, workers: int,
                      unit_indices: List[List[int]],
                      timed: List[tuple]) -> List[object]:
        """Assemble unit outcomes into spec order; store + record."""
        record = current_record()
        durations: Dict[int, float] = {}
        for indices, outcome in zip(unit_indices, timed):
            fresh, seconds, used_kernel = outcome
            first = specs[indices[0]]
            share = seconds / len(indices)
            for index, value in zip(indices, fresh):
                results[index] = value
                durations[index] = share
            if use_cache:
                self.cache.put_many(
                    (keys[index], results[index]) for index in indices
                )
            if record is not None:
                record.add_kernel_batch(
                    mode=first.mode,
                    width=len(indices),
                    seconds=seconds,
                    used_kernel=used_kernel,
                )
        if record is None:
            return results
        record.add_batch(
            specs=len(specs),
            hits=len(specs) - len(missing),
            misses=len(missing),
            seconds=time.perf_counter() - batch_start,
            workers=workers,
        )
        missing_set = set(missing)
        for index, (spec, key) in enumerate(zip(specs, keys)):
            record.add_spec(
                key=key,
                mode=spec.mode,
                config=spec.config.name,
                profile=spec.profile.name,
                uops=spec.uops,
                seed=spec.seed,
                cached=index not in missing_set,
                seconds=durations.get(index),
            )
            record.observe_result(results[index])
        return results

    def _plan_units(self, specs: Sequence[SimSpec],
                    groups: List[List[int]]) -> List[List[int]]:
        """Split trace groups into pool work units (lists of spec
        indices, each unit sharing one trace).

        Default: one unit per group.  When the pool would otherwise idle
        (fewer groups than workers), wide single-core groups are split
        into shards; each shard's worker derives its own trace, decode
        and replay, so the shards run fully in parallel.
        """
        unit_indices: List[List[int]] = []
        sharding = self.jobs > 1 and len(groups) < self.jobs \
            and kernel_enabled()
        for indices in groups:
            shards = 1
            if sharding and specs[indices[0]].mode == "single":
                # Fair share of the pool, but never shards thinner than
                # two configs (one config per unit would just re-pay
                # per-unit overhead without batching anything).
                shards = max(1, min(len(indices) // 2,
                                    self.jobs // len(groups)))
            base, extra = divmod(len(indices), shards)
            cursor = 0
            for shard in range(shards):
                size = base + (1 if shard < extra else 0)
                unit_indices.append(indices[cursor:cursor + size])
                cursor += size
        return unit_indices

    # -- single results -------------------------------------------------------

    def simulate(self, config: CoreConfig, profile: AppProfile, uops: int,
                 seed: int = 1234) -> SimResult:
        """One cached single-core run."""
        return self.run_specs([SimSpec("single", config, profile, uops,
                                       seed)])[0]

    def simulate_parallel(self, config: CoreConfig, profile: AppProfile,
                          total_uops: int, seed: int = 1234) -> MulticoreResult:
        """One cached multicore run."""
        return self.run_specs([SimSpec("multicore", config, profile,
                                       total_uops, seed)])[0]

    # -- full sweeps ----------------------------------------------------------

    def single_core_runs(
        self,
        uops: int,
        seed: int = 1234,
        configs: Optional[List[CoreConfig]] = None,
        profiles: Optional[List[AppProfile]] = None,
    ) -> Tuple[List[CoreConfig], Dict[str, Dict[str, SimResult]]]:
        """Every SPEC app on every single-core config (the Figure 6-8 sweep)."""
        configs = (
            list(configs) if configs is not None
            else paper_single_core_configs()
        )
        profiles = list(profiles) if profiles is not None else spec_profiles()
        specs = suite_specs("single", uops, seed, configs, profiles)
        flat = self.run_specs(specs)
        runs: Dict[str, Dict[str, SimResult]] = {}
        for spec, result in zip(specs, flat):
            runs.setdefault(spec.profile.name, {})[spec.config.name] = result
        return configs, runs

    def multicore_runs(
        self,
        total_uops: int,
        seed: int = 1234,
        configs: Optional[List[CoreConfig]] = None,
        profiles: Optional[List[AppProfile]] = None,
    ) -> Tuple[List[CoreConfig], Dict[str, Dict[str, MulticoreResult]]]:
        """Every parallel app on every multicore config (Figure 9-10)."""
        configs = (
            list(configs) if configs is not None
            else paper_multicore_configs()
        )
        profiles = list(profiles) if profiles is not None else parallel_profiles()
        specs = suite_specs("multicore", total_uops, seed, configs, profiles)
        flat = self.run_specs(specs)
        runs: Dict[str, Dict[str, MulticoreResult]] = {}
        for spec, result in zip(specs, flat):
            runs.setdefault(spec.profile.name, {})[spec.config.name] = result
        return configs, runs


# -- process-wide default engine ----------------------------------------------

_default_engine: Optional[ExperimentEngine] = None


def default_settings() -> Tuple[int, Optional[str]]:
    """The default engine's ``(jobs, cache_dir)``: ``$REPRO_JOBS``
    (default 1) and ``$REPRO_CACHE_DIR`` (default: memory only)."""
    return (int(os.environ.get("REPRO_JOBS", "1") or 1),
            os.environ.get("REPRO_CACHE_DIR") or None)


def get_engine() -> ExperimentEngine:
    """The process-wide engine every experiment entry point shares.

    Created lazily with :func:`default_settings`; replace it with
    :func:`configure`.
    """
    global _default_engine
    if _default_engine is None:
        jobs, cache_dir = default_settings()
        _default_engine = ExperimentEngine(jobs=jobs, cache_dir=cache_dir)
    return _default_engine


def configure(jobs: Optional[int] = None,
              cache_dir: Optional[os.PathLike] = None) -> ExperimentEngine:
    """Install (and return) a fresh default engine.

    ``jobs=None`` keeps the current engine's job count; the in-memory
    cache starts empty, the disk layer points at ``cache_dir``.
    """
    global _default_engine
    if jobs is None:
        jobs = _default_engine.jobs if _default_engine is not None else 1
    _default_engine = ExperimentEngine(jobs=jobs, cache_dir=cache_dir)
    return _default_engine
