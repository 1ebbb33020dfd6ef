"""Named wall-clock spans, shared by the benchmark and the manifests.

``timer("runner.cold")`` measures one region and attaches a
:class:`TimerSpan` to the active :class:`~repro.obs.record.RunRecord`;
the manifest built from that record reports it in its ``timers``
section.  This is the one timing primitive the repository uses, so
``BENCH_<timestamp>.json`` and the run manifests report wall time in
exactly the same shape.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, Iterator

from repro.obs.record import current_record


@dataclasses.dataclass
class TimerSpan:
    """One timed region: a dotted name and its wall-clock seconds."""

    name: str
    seconds: float = 0.0

    def as_record(self) -> Dict[str, object]:
        return {"name": self.name, "seconds": round(self.seconds, 6)}


@contextlib.contextmanager
def timer(name: str) -> Iterator[TimerSpan]:
    """Time a ``with`` block; the yielded span's ``seconds`` is filled in
    on exit and the span joins the record that is active at that moment
    (none active: it is only yielded)."""
    span = TimerSpan(name)
    start = time.perf_counter()
    try:
        yield span
    finally:
        span.seconds = time.perf_counter() - start
        active = current_record()
        if active is not None:
            active.timers.append(span)
