"""Run records: everything one invocation or one request did.

A :class:`RunRecord` is what a manifest describes.  It holds the engine
telemetry (per-batch, per-kernel-group and per-spec records plus the
aggregated stall/activity/memory-level counters), the result-cache
lookup deltas, the :func:`~repro.obs.timer.timer` spans and the optional
summary ``sections`` (``validation``, ``explore``, ``manycore``,
``serve``) — all of it for one unit of work, never for the process.

The active record lives in a :class:`contextvars.ContextVar`, so the
engine, the cache, the timers and the summary producers attach to
whichever record the current thread opened with :func:`run_record`; with
no record open their telemetry is simply not kept.  A record does not
follow work into a new thread or an executor (``run_in_executor`` does
not copy the context): code running there opens its own record.

Records nest.  Closing a child folds only its fixed-size totals —
counters, stalls, memory levels, cache deltas, kernel-summary totals —
into its parent and drops its lists and sections, so a long-lived
parent (a server's lifetime record) stays the same size however many
children (requests) close into it.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.obs.telemetry import (
    COUNTER_FIELDS,
    BatchRecord,
    KernelBatchRecord,
    SpecTiming,
)

if TYPE_CHECKING:
    from repro.obs.timer import TimerSpan

#: Result-cache counters a record keeps as deltas (the manifest's
#: ``cache`` section).
CACHE_FIELDS = ("memory_hits", "disk_hits", "misses", "stores",
                "disk_put_failures")

#: Kernel-summary totals kept incrementally, so a parent that only ever
#: receives folds still reports them without the per-group list.
_KERNEL_TOTALS = ("groups", "batched_specs", "fallback_specs",
                  "singleton_specs", "max_width", "seconds")


class RunRecord:
    """Accumulates one run's telemetry, cache deltas, spans and sections."""

    def __init__(self) -> None:
        self.batches: List[BatchRecord] = []
        self.kernel_batches: List[KernelBatchRecord] = []
        self.spec_timings: List[SpecTiming] = []
        self.timers: List["TimerSpan"] = []
        self.sections: Dict[str, Dict[str, Any]] = {}
        self.stall_cycles: Dict[str, int] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTER_FIELDS, 0)
        self.mem_level_counts: Dict[str, int] = {}
        self.cache: Dict[str, int] = dict.fromkeys(CACHE_FIELDS, 0)
        self.kernel_totals: Dict[str, float] = {
            name: 0.0 if name == "seconds" else 0 for name in _KERNEL_TOTALS
        }
        self._fold_lock = threading.Lock()

    # -- feeding --------------------------------------------------------------

    def add_batch(self, specs: int, hits: int, misses: int,
                  seconds: float, workers: int) -> None:
        self.batches.append(BatchRecord(specs, hits, misses, seconds, workers))

    def add_kernel_batch(self, mode: str, width: int, seconds: float,
                         used_kernel: bool) -> None:
        self.kernel_batches.append(
            KernelBatchRecord(mode, width, seconds, used_kernel)
        )
        totals = self.kernel_totals
        totals["groups"] += 1
        totals["seconds"] += seconds
        if used_kernel:
            totals["batched_specs"] += width
            totals["max_width"] = max(totals["max_width"], width)
        elif width > 1:
            totals["fallback_specs"] += width
        else:
            totals["singleton_specs"] += 1

    def kernel_summary(self) -> Dict[str, object]:
        """Aggregate kernel usage: how many specs were batched through
        the SoA kernel vs fell back to the scalar oracle.

        Only ``$REPRO_KERNEL=0`` sends groups to the oracle:
        ``fallback_specs`` counts the specs of such groups of width >= 2
        and ``singleton_specs`` those of one spec."""
        summary = dict(self.kernel_totals)
        summary["seconds"] = round(summary["seconds"], 6)
        return summary

    def add_spec(self, key: str, mode: str, config: str, profile: str,
                 uops: int, seed: int, cached: bool,
                 seconds: Optional[float] = None) -> None:
        self.spec_timings.append(
            SpecTiming(key, mode, config, profile, uops, seed, cached, seconds)
        )

    def observe_result(self, result: object) -> None:
        """Fold one simulation result (single- or multicore) into the
        aggregate stall/activity counters.  Cache hits count too: the
        aggregate describes what the sweeps *reported*, not what was
        freshly simulated."""
        per_core = getattr(result, "per_core", None)
        if per_core is not None:
            for core_result in per_core:
                self._observe_stats(core_result.stats)
            return
        stats = getattr(result, "stats", None)
        if stats is not None:
            self._observe_stats(stats)

    def _observe_stats(self, stats: object) -> None:
        counters = self.counters
        for name in COUNTER_FIELDS:
            counters[name] += int(getattr(stats, name, 0))
        _add_counts(self.stall_cycles, getattr(stats, "stall_cycles", {}))
        _add_counts(self.mem_level_counts,
                    getattr(stats, "mem_level_counts", {}))

    # -- nesting --------------------------------------------------------------

    def fold(self, child: "RunRecord") -> None:
        """Add ``child``'s fixed-size totals; its lists and sections are
        not copied.  Serialised per parent, so children may close from
        several threads."""
        with self._fold_lock:
            for mine, theirs in ((self.counters, child.counters),
                                 (self.stall_cycles, child.stall_cycles),
                                 (self.mem_level_counts,
                                  child.mem_level_counts),
                                 (self.cache, child.cache)):
                _add_counts(mine, theirs)
            totals = self.kernel_totals
            for name, value in child.kernel_totals.items():
                totals[name] = (max(totals[name], value) if name == "max_width"
                                else totals[name] + value)


def _add_counts(into: Dict[str, Any], counts: Dict[str, Any]) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + int(value)


_ACTIVE: contextvars.ContextVar[Optional[RunRecord]] = \
    contextvars.ContextVar("repro_run_record", default=None)


def current_record() -> Optional[RunRecord]:
    """The record open in this context, or ``None``."""
    return _ACTIVE.get()


@contextlib.contextmanager
def run_record(parent: Optional[RunRecord] = None) -> Iterator[RunRecord]:
    """Open a fresh record as the active one for the ``with`` block.

    On exit the previously active record is restored and the new one's
    totals fold into ``parent`` — by default the record that was active
    when this one opened (none: nothing is folded).
    """
    if parent is None:
        parent = _ACTIVE.get()
    record = RunRecord()
    token = _ACTIVE.set(record)
    try:
        yield record
    finally:
        _ACTIVE.reset(token)
        if parent is not None:
            parent.fold(record)


def attach_section(name: str, summary: Dict[str, Any]) -> None:
    """Put a summary section (``validation``, ``explore``, ...) on the
    active record; without one there is no manifest to carry it."""
    record = _ACTIVE.get()
    if record is not None:
        record.sections[name] = summary


__all__ = [
    "CACHE_FIELDS",
    "RunRecord",
    "attach_section",
    "current_record",
    "run_record",
]
