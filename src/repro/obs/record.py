"""Run records: everything one invocation or one request did.

A :class:`RunRecord` is what a manifest describes.  It holds the engine
telemetry (per-batch, per-kernel-group and per-spec records plus the
aggregated stall/activity/memory-level counters), the result-cache
lookup deltas, the :func:`~repro.obs.timer.timer` spans and the optional
summary ``sections`` (``validation``, ``explore``, ``manycore``,
``serve``) — all of it for one unit of work, never for the process.
:data:`~repro.obs.telemetry.PARTS` declares each of its lists and maps.

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
import dataclasses
import threading
from typing import Any, Dict, Iterator, Optional, get_origin

from repro.obs.telemetry import PARTS, PEAK, Counts, KernelBatchRecord, marked


#: Each part's attribute and starting value: no entries, no counts, or
#: the declared fields' defaults.
_STARTS = tuple(
    (attr, [] if get_origin(declaration) is list
     else {} if declaration is Counts
     else dataclasses.asdict(declaration()))
    for _, attr, declaration in PARTS)


class RunRecord:
    """One run's telemetry, cache deltas, spans and sections: each row
    of :data:`~repro.obs.telemetry.PARTS` is an attribute."""

    def __init__(self) -> None:
        for attr, start in _STARTS:
            setattr(self, attr, start.copy())
        self.sections: Dict[str, Dict[str, Any]] = {}
        self._fold_lock = threading.Lock()

    # -- feeding --------------------------------------------------------------

    def add_kernel_batch(self, batch: KernelBatchRecord) -> None:
        self.kernel_batches.append(batch)
        totals = self.kernel_totals
        totals["groups"] += 1
        totals["seconds"] += batch.seconds
        if batch.used_kernel:
            totals["batched_specs"] += batch.width
            totals["max_width"] = max(totals["max_width"], batch.width)
        elif batch.width > 1:
            totals["fallback_specs"] += batch.width
        else:
            totals["singleton_specs"] += 1

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
        for name in counters:
            counters[name] += int(getattr(stats, name, 0))
        _add_counts(self.stall_cycles, getattr(stats, "stall_cycles", {}))
        _add_counts(self.mem_level_counts,
                    getattr(stats, "mem_level_counts", {}))

    # -- nesting --------------------------------------------------------------

    def fold(self, child: "RunRecord") -> None:
        """Add ``child``'s maps; its lists and sections are not copied.
        Serialised per parent, so children may close from several
        threads."""
        with self._fold_lock:
            for _, attr, declaration in PARTS:
                mine = getattr(self, attr)
                if isinstance(mine, list):
                    continue
                peaks = () if declaration is Counts \
                    else marked(declaration, PEAK)
                for key, value in getattr(child, attr).items():
                    mine[key] = (max(mine[key], value) if key in peaks
                                 else mine.get(key, 0) + value)


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
    "RunRecord",
    "attach_section",
    "current_record",
    "run_record",
]
