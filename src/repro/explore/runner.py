"""Sharded, resumable, pipelined execution of a :class:`SpaceSpec`.

The runner walks a space's lazy point generator in **chunks**, routes
each chunk through :func:`repro.design.sweep.submit_points` (so the
batched kernel, the engine result cache and ``--jobs`` fan-out apply
exactly as for the paper figures), and streams one record per evaluated
point into a :class:`~repro.explore.store.ResultStore`.

Chunks are **pipelined**: up to ``in_flight`` chunks (default 2) are
submitted to the persistent worker pool (:mod:`repro.engine.pool`) at
once, so while chunk N simulates in the workers, the parent thread
expands, deduplicates and submits chunk N+1 and group-commits chunk
N-1's records.  Commits happen strictly in submission (FIFO) order, so
the store's bytes — and therefore resume behavior and the extracted
frontier — are identical to a serial ``in_flight=1`` run.

Resume is the store's content keys: a point whose key is already on
disk is never re-evaluated — a killed million-point sweep restarts from
the first unevaluated point, not from zero.  Duplicate draws inside one
space (random sampling repeats itself) collapse onto one key and one
evaluation the same way.

At the end of a run — *including* a crashed one — the runner extracts
the Pareto frontier of the committed records
(:mod:`repro.explore.frontier`) and records a progress summary for the
active run record's manifest (:func:`repro.obs.attach_section`,
manifest schema v7); a failed run's summary carries an ``error`` field
instead of silently vanishing.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.design.space import SpaceSpec
from repro.explore.frontier import pareto_frontier
from repro.explore.store import ResultStore, evaluation_record, point_key
from repro.obs.telemetry import ExploreSection

#: Default points per evaluation chunk.  One chunk is one
#: ``submit_points`` call, which fans out into one batched-kernel group
#: *per suite profile* (every profile shares the chunk's config list) —
#: so the chunk size bounds both peak memory and the work lost when a
#: run dies mid-chunk.
DEFAULT_CHUNK_SIZE: int = 64

#: Default chunks in flight: one evaluating in the pool while the
#: previous one commits and the next one expands on the parent thread.
DEFAULT_IN_FLIGHT: int = 2

ProgressFn = Callable[[Dict[str, Any]], None]


@dataclasses.dataclass
class ExploreReport:
    """What one ``repro explore`` run did."""

    space: SpaceSpec
    store_path: Optional[Path]
    chunk_size: int
    params: Dict[str, Any]
    total_points: int  # points the space expanded to (unique + dups)
    evaluated: int  # simulated fresh this run
    skipped: int  # resumed from the store's prior lines
    duplicates: int  # same-key repeats within this space
    chunks: int  # chunks actually simulated
    seconds: float
    frontier: List[Dict[str, Any]]
    in_flight: int = DEFAULT_IN_FLIGHT
    points_per_second: float = 0.0  # evaluated / wall seconds
    pool_reuses: int = 0  # persistent-pool lease reuses during this run
    error: Optional[str] = None  # set when the run died mid-space

    @property
    def unique_points(self) -> int:
        return self.total_points - self.duplicates

    def as_dict(self) -> Dict[str, Any]:
        """The manifest/CLI summary view."""
        return ExploreSection(
            space=self.space.name,
            kind=self.space.kind,
            store=str(self.store_path) if self.store_path else None,
            chunk_size=self.chunk_size,
            in_flight=self.in_flight,
            total_points=self.total_points,
            unique_points=self.unique_points,
            evaluated=self.evaluated,
            skipped=self.skipped,
            duplicates=self.duplicates,
            chunks=self.chunks,
            frontier_size=len(self.frontier),
            seconds=self.seconds,
            points_per_second=self.points_per_second,
            pool_reuses=self.pool_reuses,
            error=self.error,
        ).as_record()


def explore(space: SpaceSpec,
            store: Optional[ResultStore] = None,
            *,
            store_path=None,
            chunk_size: int = DEFAULT_CHUNK_SIZE,
            in_flight: int = DEFAULT_IN_FLIGHT,
            uops: int = 2000,
            multicore_uops: Optional[int] = None,
            seed: int = 1234,
            grid: int = 8,
            apps: Optional[int] = None,
            engine=None,
            limit: Optional[int] = None,
            progress: Optional[ProgressFn] = None) -> ExploreReport:
    """Evaluate a space end-to-end; resumable, sharded, pipelined.

    Pass either an open ``store`` or a ``store_path`` (``None`` for both
    runs fully in memory; a store created here from ``store_path`` is
    closed before returning).  ``in_flight`` caps the chunks submitted
    to the worker pool at once — commits stay in submission order, so
    any value produces byte-identical stores; ``in_flight=1`` is the
    strictly serial expand→evaluate→commit loop.  ``limit`` truncates
    the expansion; ``progress`` is called once per *committed* chunk
    with a summary dict.  Evaluation parameters mirror
    :func:`repro.design.sweep.evaluate_points`.

    The manifest summary (:func:`repro.obs.attach_section`) is attached
    even when the run raises — with an ``error`` field and the counts
    up to the failure — and the exception then propagates.
    """
    if store is not None and store_path is not None:
        raise ValueError("pass either store or store_path, not both")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if in_flight < 1:
        raise ValueError(f"in_flight must be >= 1, got {in_flight}")
    owns_store = store is None
    store = store if store is not None else ResultStore(store_path)
    params = {"uops": uops, "seed": seed, "grid": grid, "apps": apps}

    from repro.design.sweep import submit_points
    from repro.engine.pool import pool_stats

    reuses_before = pool_stats()["reuses"]
    start = time.perf_counter()
    total = evaluated = skipped = duplicates = chunks = 0
    error: Optional[str] = None
    space_keys: Dict[str, None] = {}  # ordered unique keys of this space
    pending: List[tuple] = []  # (point, key) awaiting submission
    #: FIFO of submitted chunks: ([(point, key), ...], PendingPointEvaluation)
    inflight: "collections.deque" = collections.deque()

    def submit() -> None:
        nonlocal pending
        if not pending:
            return
        handle = submit_points(
            [point for point, _ in pending],
            uops=uops, multicore_uops=multicore_uops, seed=seed,
            grid=grid, engine=engine, apps=apps,
        )
        inflight.append((pending, handle))
        pending = []

    def commit_oldest() -> None:
        """Resolve the oldest in-flight chunk and group-commit it."""
        nonlocal evaluated, chunks
        chunk, handle = inflight.popleft()
        evaluations = handle.result()
        store.append_many(
            evaluation_record(key, evaluation, params)
            for (_, key), evaluation in zip(chunk, evaluations)
        )
        evaluated += len(chunk)
        chunks += 1
        if progress is not None:
            progress({
                "chunk": chunks,
                "total_points": total,
                "evaluated": evaluated,
                "skipped": skipped,
                "duplicates": duplicates,
            })

    try:
        for point in space.points(limit=limit):
            total += 1
            key = point_key(point, **params)
            if key in space_keys:
                duplicates += 1
                continue
            space_keys[key] = None
            if key in store:
                skipped += 1
                continue
            pending.append((point, key))
            if len(pending) >= chunk_size:
                submit()
                while len(inflight) >= in_flight:
                    commit_oldest()
        submit()
        while inflight:
            commit_oldest()
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        while inflight:
            _, handle = inflight.popleft()
            handle.abandon()
        raise
    finally:
        if owns_store:
            store.close()
        seconds = time.perf_counter() - start
        # Committed records only: after a crash some space keys never
        # landed, and the partial frontier must not trip over them.
        committed = (store.get(key) for key in space_keys)
        frontier = pareto_frontier(
            record for record in committed if record is not None
        )
        report = ExploreReport(
            space=space,
            store_path=store.path,
            chunk_size=chunk_size,
            params=params,
            total_points=total,
            evaluated=evaluated,
            skipped=skipped,
            duplicates=duplicates,
            chunks=chunks,
            seconds=seconds,
            frontier=frontier,
            in_flight=in_flight,
            points_per_second=evaluated / seconds if seconds > 0 else 0.0,
            pool_reuses=pool_stats()["reuses"] - reuses_before,
            error=error,
        )

        from repro.obs import attach_section

        attach_section("explore", report.as_dict())
    return report


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_IN_FLIGHT",
    "ExploreReport",
    "explore",
]
