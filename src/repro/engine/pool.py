"""The persistent worker pool behind every parallel sweep.

Before this module existed, every ``run_specs`` call paid a full
``ProcessPoolExecutor`` spawn-and-teardown: a chunked ``repro explore``
run re-imported the model stack and re-warmed the per-process trace
memos once *per chunk*.  Now one lazily-spawned executor is shared by
every :class:`~repro.engine.sweep.ExperimentEngine` in the process —
across ``run_specs`` calls, explore chunks and engines — so workers are
spawned once and their warm state (trace memos, compiled timing loops)
keeps paying off for the whole run.

Contract:

* **Lazy, grow-only sizing** — the executor is created on first use at
  the requested width and respawned wider when a later caller asks for
  more workers; it is never shrunk (extra workers idle for free).
* **Environment coherence** — workers inherit ``$REPRO_*`` knobs at
  spawn time, so the pool fingerprints those variables and respawns
  itself when any of them changes (a test flipping ``$REPRO_KERNEL``
  gets workers that honor the new value, not stale forks).
* **Crash containment** — a worker death breaks a
  ``ProcessPoolExecutor`` permanently (every pending future raises
  :class:`BrokenProcessPool`).  :meth:`PoolLease.resolve` respawns the
  shared executor once per broken generation and resubmits each lost
  unit exactly once (units are self-contained spec lists, so a retry
  needs nothing from the crashed worker).
* **Accounted shutdown** — leases are ref-counted so diagnostics can
  see in-flight borrowers; :func:`shutdown_pool` (also registered via
  ``atexit``) joins every worker, leaving no stray processes behind.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple


@dataclasses.dataclass
class PoolStats:
    """Process-wide pool accounting (feeds bench + the explore manifest
    section's ``pool_reuses``)."""

    spawns: int = 0  # executors created (first spawn, growth, env change)
    reuses: int = 0  # leases served by an already-running executor
    respawns: int = 0  # replacements after a BrokenProcessPool
    retried_units: int = 0  # units re-executed after a worker crash

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


_lock = threading.Lock()
_executor: Optional[ProcessPoolExecutor] = None
_workers: int = 0
_generation: int = 0
_env_signature: Optional[tuple] = None
_active_leases: int = 0
_stats = PoolStats()


def _signature() -> tuple:
    """The worker-visible environment: every ``REPRO_*`` variable.

    Workers capture ``os.environ`` at spawn; any later change in the
    parent is invisible to them.  Fingerprinting the whole namespace is
    coarse (a changed cache dir also respawns) but guarantees a worker
    never runs with a stale model knob.
    """
    return tuple(sorted(
        (key, value) for key, value in os.environ.items()
        if key.startswith("REPRO_")
    ))


def _spawn_locked(workers: int) -> ProcessPoolExecutor:
    global _executor, _workers, _generation, _env_signature
    _executor = ProcessPoolExecutor(max_workers=workers)
    _workers = workers
    _generation += 1
    _env_signature = _signature()
    _stats.spawns += 1
    return _executor


def _shutdown_locked(wait: bool = True) -> None:
    global _executor, _workers
    if _executor is not None:
        _executor.shutdown(wait=wait)
        _executor = None
        _workers = 0


def get_executor(workers: int) -> Tuple[ProcessPoolExecutor, int]:
    """The shared executor (sized >= ``workers``) and its generation.

    Spawns lazily; respawns when the request is wider than the current
    pool or the ``REPRO_*`` environment changed since the last spawn.
    """
    with _lock:
        if _executor is None:
            return _spawn_locked(workers), _generation
        if _workers < workers or _env_signature != _signature():
            _shutdown_locked(wait=True)
            return _spawn_locked(workers), _generation
        _stats.reuses += 1
        return _executor, _generation


def _respawn_after_break(broken_generation: int,
                         workers: int) -> Tuple[ProcessPoolExecutor, int]:
    """Replace a broken shared executor (once per generation).

    Concurrent resolvers of the same broken pool all land here; only the
    first actually respawns — the rest see the bumped generation and
    reuse the replacement.
    """
    with _lock:
        if _generation == broken_generation or _executor is None:
            _stats.respawns += 1
            # Read the width before the teardown zeroes it: the
            # replacement is never narrower than the pool it replaces.
            width = max(workers, _workers)
            try:
                _shutdown_locked(wait=False)
            except Exception:  # pragma: no cover - broken-pool teardown
                pass
            _spawn_locked(width)
        else:
            _stats.reuses += 1
        return _executor, _generation


def shutdown_pool() -> None:
    """Join every worker and drop the shared executor (idempotent).

    Safe to call while leases are active: pending futures complete
    first.  The next :func:`get_executor` spawns fresh.
    """
    with _lock:
        _shutdown_locked(wait=True)


atexit.register(shutdown_pool)


def pool_stats() -> Dict[str, object]:
    """Counters plus the live pool shape, for bench/manifests/tests."""
    with _lock:
        record = _stats.as_dict()
        record["workers"] = _workers
        record["running"] = _executor is not None
        record["active_leases"] = _active_leases
        return record


def worker_pids() -> List[int]:
    """PIDs of the current shared pool's workers (hygiene checks)."""
    with _lock:
        if _executor is None:
            return []
        processes = getattr(_executor, "_processes", None) or {}
        return sorted(processes.keys())


def _warm_worker() -> int:
    """Trivial task a worker runs to prove it is up (returns its pid)."""
    return os.getpid()


def warm_up(workers: int) -> List[int]:
    """Force the shared pool to ``workers`` live processes, synchronously.

    Submits one trivial task per requested worker and waits for all of
    them, so callers that care about first-request latency (the server's
    startup path) pay the spawn + import cost up front instead of on the
    first client request.  Returns the pids that answered (deduplicated;
    fewer than ``workers`` entries just means one process answered
    twice, not a failure).
    """
    executor, _ = get_executor(workers)
    futures = [executor.submit(_warm_worker) for _ in range(workers)]
    return sorted({future.result() for future in futures})


class PoolLease:
    """A borrowed share of the pool for one batch of work-unit submissions.

    ``close`` only releases the ref count; the shared executor outlives
    the lease.
    """

    def __init__(self, workers: int) -> None:
        global _active_leases
        self.workers = workers
        #: ``_submit_generation`` is the generation the lease's futures
        #: were submitted under.  One worker crash breaks *every* future
        #: of that executor, so only the first resolver respawns; the
        #: rest see the generation already bumped and retry on the
        #: healthy replacement.
        self._executor, self._submit_generation = get_executor(workers)
        with _lock:
            _active_leases += 1
        self._closed = False

    def submit(self, fn: Callable, *args) -> Future:
        return self._executor.submit(fn, *args)

    def resolve(self, future: Future, fn: Callable, retry_args: tuple):
        """``future.result()`` with one crash retry.

        A :class:`BrokenProcessPool` means a worker died and took the
        executor with it: respawn the shared executor and re-run
        ``fn(*retry_args)`` exactly once.  A second failure propagates.
        """
        try:
            return future.result()
        except BrokenProcessPool:
            _stats.retried_units += 1
            self._executor, _ = _respawn_after_break(
                self._submit_generation, self.workers
            )
            return self._executor.submit(fn, *retry_args).result()

    def close(self) -> None:
        """Release the lease (idempotent)."""
        global _active_leases
        if self._closed:
            return
        self._closed = True
        with _lock:
            _active_leases -= 1


__all__ = [
    "PoolLease",
    "PoolStats",
    "get_executor",
    "pool_stats",
    "shutdown_pool",
    "warm_up",
    "worker_pids",
]
