"""Every run-manifest part, declared once.

Each part of a manifest is a dataclass here: its fields are the part's
keys in manifest order, their annotations the JSON types of the values.
Producers fill them in, :class:`~repro.obs.record.RunRecord` keeps and
folds them, :func:`~repro.obs.manifest.build_manifest` writes them out
(:meth:`Entry.as_record`) and :func:`~repro.obs.manifest.validate_manifest`
checks a manifest against the same annotations.  :data:`PARTS` and
:data:`SECTIONS` lay the parts out in manifest order.

A field may carry one mark besides its type: :data:`Seconds` is written
rounded to the microsecond, a :data:`Count` is never negative, a
:data:`Ratio` lies in [0, 1], a :data:`Peak` folds into a parent record
by ``max`` instead of a sum, and a :data:`Note` is left out while unset.

This module imports nothing from the rest of ``repro`` (results are read
by duck typing), so any layer can load it without cycles.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import (Annotated, Any, Dict, List, Literal, Mapping, Optional,
                    Tuple, Union, get_args, get_origin, get_type_hints)

SECONDS, COUNT, RATIO, PEAK, NOTE = "seconds", "count", "ratio", "peak", "note"
Seconds = Annotated[float, SECONDS]
Count = Annotated[int, COUNT]
Ratio = Annotated[float, RATIO]
Peak = Annotated[int, PEAK]
Note = Annotated[str, NOTE]
#: A map of open keys, each a non-negative count (stall causes, memory
#: levels).
Counts = Dict[str, Annotated[float, COUNT]]


def marks(hint: Any) -> Tuple[str, ...]:
    """The marks on a field annotation (an ``Optional`` one's included)."""
    if get_origin(hint) is Union:
        hint = get_args(hint)[0]
    return getattr(hint, "__metadata__", ())


@functools.lru_cache(maxsize=None)
def declared(declaration: type) -> Dict[str, Any]:
    """``{field: annotation}`` of a declaration, in field order."""
    hints = get_type_hints(declaration, include_extras=True)
    return {field.name: hints[field.name]
            for field in dataclasses.fields(declaration)}


@functools.lru_cache(maxsize=None)
def marked(declaration: type, mark: str) -> Tuple[str, ...]:
    """The fields of a declaration that carry ``mark``."""
    return tuple(name for name, hint in declared(declaration).items()
                 if mark in marks(hint))


def written(declaration: type, values: Mapping[str, Any]) -> Dict[str, Any]:
    """The manifest JSON of a declared part from its field values, in
    field order: seconds rounded to the microsecond, unset notes left
    out."""
    record = {name: values[name] for name in declared(declaration)}
    for name in marked(declaration, SECONDS):
        if record[name] is not None:
            record[name] = round(record[name], 6)
    for name in marked(declaration, NOTE):
        if record[name] is None:
            del record[name]
    return record


class Entry:
    """A declaration that writes itself out from its own fields."""

    def as_record(self) -> Dict[str, Any]:
        """The manifest JSON of this part (:func:`written`)."""
        return written(type(self), vars(self))


# -- the record's entries ------------------------------------------------------


@dataclasses.dataclass
class BatchRecord(Entry):
    """One ``run_specs`` call: size, hit/miss split, time, workers."""

    specs: int
    hits: int
    misses: int
    seconds: Seconds
    workers: int


@dataclasses.dataclass
class KernelBatchRecord(Entry):
    """One work unit (a same-trace spec group, or a shard of one): how
    it was executed and how wide.

    ``used_kernel`` is False when the unit ran through the scalar
    oracle, which only ``$REPRO_KERNEL=0`` selects.
    """

    mode: str
    width: int
    seconds: Seconds
    used_kernel: bool


@dataclasses.dataclass
class SpecTiming(Entry):
    """Per-spec record: identity, cache outcome, and simulation time.

    ``seconds`` is ``None`` for cache hits (nothing was simulated).
    """

    key: str
    mode: str
    config: str
    profile: str
    uops: int
    seed: int
    cached: bool
    seconds: Optional[Seconds] = None


@dataclasses.dataclass
class TimerSpan(Entry):
    """One timed region: a dotted name and its wall-clock seconds."""

    name: str
    seconds: Seconds = 0.0


# -- the record's fixed-key maps -----------------------------------------------


@dataclasses.dataclass
class CacheStats(Entry):
    """Result-cache lookups and stores: a cache's lifetime totals, and a
    record's deltas (the manifest's ``cache``)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Disk writes that failed (full disk, read-only directory, an
    #: unpicklable result, ...); each one degraded that store to
    #: memory-only instead of aborting the sweep.
    disk_put_failures: int = 0

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 on an untouched cache)."""
        hits = self.memory_hits + self.disk_hits
        lookups = hits + self.misses
        return hits / lookups if lookups else 0.0


@dataclasses.dataclass
class Counters(Entry):
    """Activity counters summed over every result the engine served."""

    uops: int = 0
    cycles: int = 0
    branches: int = 0
    mispredictions: int = 0
    loads: int = 0
    stores: int = 0


@dataclasses.dataclass
class KernelTotals(Entry):
    """How the work units ran (the manifest's ``kernel.summary``).

    Only ``$REPRO_KERNEL=0`` sends units to the scalar oracle:
    ``fallback_specs`` counts the specs of such units of width >= 2 and
    ``singleton_specs`` those of one spec.
    """

    groups: int = 0
    batched_specs: int = 0
    fallback_specs: int = 0
    singleton_specs: int = 0
    max_width: Peak = 0
    seconds: Seconds = 0.0


# -- manifest sections -----------------------------------------------------------


@dataclasses.dataclass
class PlatformSection(Entry):
    """The interpreter and machine a manifest was written on."""

    python: str
    machine: str
    cpu_count: int


@dataclasses.dataclass
class EngineSection(Entry):
    """The engine's static configuration."""

    jobs: int
    cache_dir: Optional[str]


@dataclasses.dataclass
class ExploreSection(Entry):
    """What one ``repro explore`` run did (schema v5, extended in v7)."""

    space: str
    kind: str
    store: Optional[str]
    chunk_size: int
    in_flight: Count
    total_points: Count
    unique_points: Count
    evaluated: Count
    skipped: Count
    duplicates: Count
    chunks: Count
    frontier_size: Count
    seconds: float
    points_per_second: float
    pool_reuses: Count
    #: Set when the run died mid-space.
    error: Note = None


@dataclasses.dataclass
class ManycoreSection(Entry):
    """One tile-grid scenario run (schema v6)."""

    scenario: str
    rows: Count
    cols: Count
    tiles: Count
    apps: Count
    folded_tiles: bool
    injection_rate: float
    noc_latency: Count
    contention_cycles: float
    dropped_phases: Count
    max_peak_c: float
    thermal_grid: Count
    seconds: float


@dataclasses.dataclass
class ServeSection(Entry):
    """``repro serve`` telemetry (schema v8): one request's, on its
    response manifest, or a server lifetime's, on its shutdown
    manifest.

    ``queue_depth`` is, for one request, how many admitted requests
    still waited ahead of it when it was admitted; for a lifetime, the
    most admitted requests that waited at once (the request just
    admitted included).
    """

    requests: Count
    rejected: Count
    queue_depth: Count
    wait_seconds: float
    service_seconds: float
    cache_hit_ratio: Ratio


@dataclasses.dataclass
class DriftEntry:
    """One drifted golden cell of a :class:`ValidatedArtifact`."""

    path: str
    kind: str
    message: str


@dataclasses.dataclass
class ValidatedArtifact:
    """One artifact's entry in the :class:`ValidationSection`."""

    artifact: str
    status: str
    cells: int
    drifts: List[DriftEntry]


@dataclasses.dataclass
class ValidationSection:
    """The golden drift report (schema v3): only the keys the validator
    checks, of the report :mod:`repro.golden.validate` builds."""

    schema: str
    mode: str
    deep: bool
    status: Literal["pass", "fail", "updated"]
    artifacts: List[ValidatedArtifact]
    summary: dict


#: What a run record keeps, in manifest order: the manifest key (dotted
#: when nested), the record attribute and its declaration.  A ``List``
#: holds entries; any other declaration is a map, of its fields or of
#: open :data:`Counts`.  A closing record folds its maps into its parent
#: and drops its lists.
PARTS = (
    ("cache", "cache", CacheStats),
    ("batches", "batches", List[BatchRecord]),
    ("kernel.summary", "kernel_totals", KernelTotals),
    ("kernel.batches", "kernel_batches", List[KernelBatchRecord]),
    ("specs", "spec_timings", List[SpecTiming]),
    ("stalls", "stall_cycles", Counts),
    ("counters", "counters", Counters),
    ("mem_level_counts", "mem_level_counts", Counts),
    ("timers", "timers", List[TimerSpan]),
)

#: The optional summary sections, in manifest order.
SECTIONS = {
    "validation": ValidationSection,
    "explore": ExploreSection,
    "manycore": ManycoreSection,
    "serve": ServeSection,
}


class ModelDisagreementWarning(UserWarning):
    """The cycle model and the analytical interval model disagree on the
    *direction* of a config-to-config CPI change — one of them is
    mismodelling the configuration delta."""


def warn_model_disagreement(message: str) -> None:
    """Emit a :class:`ModelDisagreementWarning` (sweep cross-checks).

    Attributed to the caller's caller, as ``stacklevel=3`` would be, but
    emitted with no warnings registry: each message names its point and
    app, and the "default" action would keep every distinct text in the
    calling module's ``__warningregistry__`` for the life of the process,
    which grows without bound under ``repro serve``.  The trade-off: an
    identical disagreement is shown again whenever its runs are evaluated
    again.  A served request's runs are evaluated once per plan
    (:mod:`repro.serve.protocol`), so a repeat answered from its plan
    shows nothing new.
    """
    import sys
    import warnings

    frame = sys._getframe(1)
    frame = frame.f_back or frame
    warnings.warn_explicit(
        message, ModelDisagreementWarning, frame.f_code.co_filename,
        frame.f_lineno, module=frame.f_globals.get("__name__"),
        registry=None)
