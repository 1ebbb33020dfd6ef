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
import time
from typing import Iterator

from repro.obs.record import current_record
from repro.obs.telemetry import TimerSpan


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
