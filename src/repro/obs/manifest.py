"""Run manifests: schema-versioned JSON records of what a run did.

Every entry point (``python -m repro``, the experiment runner,
``scripts/bench.py``) can emit one manifest per invocation via
``--metrics-out PATH`` or ``$REPRO_METRICS``.  A manifest captures:

* identity — schema version, timestamp, the command line, the source
  fingerprint the cache keys use, the platform;
* the engine configuration (jobs, cache directory) and the run's
  result-cache hit/miss/store/failure counts;
* per-batch and per-spec execution records (what was simulated, what was
  served from cache, and how long each fresh simulation took);
* aggregated pipeline telemetry — per-stage stall cycles, activity
  counters, memory-level histograms — from every result the engine
  returned;
* the named :mod:`repro.obs.timer` spans completed during the run;
* the optional summary sections the run attached: the golden-validation
  drift report (``validation``, schema v3), the design-space
  exploration summary (``explore``, v5), the tile-grid scenario summary
  (``manycore``, v6) and the server telemetry (``serve``, v8).

A manifest describes exactly one :class:`~repro.obs.record.RunRecord`:
one CLI invocation, or one served request.

:func:`validate_manifest` is a dependency-free structural validator
(``python -m repro.obs <manifest.json>`` runs it from the command line;
CI fails if the benchmark's manifest does not validate).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.record import RunRecord

#: Current manifest schema identifier; bump when the shape changes.
#: v2 added the ``kernel`` section (batched SoA-kernel usage records).
#: v3 added the optional ``validation`` section (golden drift report).
#: v4 added kernel-path and shared-memory telemetry: per-batch ``path``
#: / ``shm`` fields and the vectorized/scalar/mixed/shm group counts in
#: the kernel summary.
#: v5 added the optional ``explore`` section (design-space exploration
#: summary: space identity, point/evaluation/resume counts, frontier
#: size and wall-clock).
#: v6 added the optional ``manycore`` section (tile-grid scenario
#: summary: grid identity, NoC latency/contention, dropped barrier
#: phases, peak temperature and wall-clock).
#: v7 extended the ``explore`` section with the pipelined runner's
#: telemetry — ``in_flight`` (chunks submitted concurrently),
#: ``points_per_second`` and ``pool_reuses`` (persistent worker-pool
#: lease reuses) — plus an optional ``error`` field recorded when the
#: run died mid-space (crash-safe explore manifests).
#: v8 added the optional ``serve`` section (``repro serve`` telemetry:
#: request/rejection counts, queue depth, wait/service seconds, cache
#: hit ratio) — present both on per-request response manifests and on
#: the server process's own shutdown manifest.
#: v9 dropped the kernel-path telemetry (per-batch ``path`` and the
#: vectorized/scalar/mixed group counts): the kernel has one timing path.
#: v10 dropped the shared-memory telemetry (the per-batch ``shm`` flag
#: and the summary's count of such groups): work units are plain spec
#: lists.
MANIFEST_SCHEMA_VERSION = "repro-manifest-v10"


class ManifestError(ValueError):
    """Raised by :func:`check_manifest` for a structurally invalid manifest."""


# -- construction -------------------------------------------------------------


def build_manifest(command: str, record: RunRecord,
                   engine: Optional[object] = None,
                   created: Optional[str] = None) -> Dict[str, Any]:
    """Assemble the manifest describing ``record``.

    ``engine`` (default: the process engine) supplies only the static
    ``engine`` section, its job count and cache directory; ``created``
    (an ISO timestamp) is stamped automatically when omitted.
    """
    # Imported lazily: repro.engine imports repro.obs, so a module-level
    # import here would be circular.
    import platform

    from repro.engine.cache import code_fingerprint

    if engine is None:
        from repro.engine.sweep import get_engine

        engine = get_engine()
    if created is None:
        from datetime import datetime, timezone

        created = datetime.now(timezone.utc).isoformat()
    cache_dir = engine.cache.cache_dir
    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "created": created,
        "command": command,
        "code_fingerprint": code_fingerprint(),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
        },
        "engine": {
            "jobs": engine.jobs,
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
        },
        "cache": dict(record.cache),
        "batches": [batch.as_record() for batch in record.batches],
        "kernel": {
            "summary": record.kernel_summary(),
            "batches": [batch.as_record() for batch in record.kernel_batches],
        },
        "specs": [spec.as_record() for spec in record.spec_timings],
        "stalls": dict(record.stall_cycles),
        "counters": dict(record.counters),
        "mem_level_counts": dict(record.mem_level_counts),
        "timers": [span.as_record() for span in record.timers],
    }
    for name in ("validation", "explore", "manycore", "serve"):
        if name in record.sections:
            manifest[name] = record.sections[name]
    return manifest


def write_manifest(manifest: Dict[str, Any], path: os.PathLike) -> Path:
    """Validate ``manifest`` and write it as indented JSON."""
    check_manifest(manifest)
    target = Path(path)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return target


def metrics_path(cli_value: Optional[str] = None) -> Optional[str]:
    """Resolve the manifest destination: CLI flag, else ``$REPRO_METRICS``."""
    return cli_value or os.environ.get("REPRO_METRICS") or None


# -- validation ---------------------------------------------------------------

#: Field -> required type(s) for each nested record (``None`` in a tuple
#: means the JSON value may be null).
_PLATFORM_FIELDS = {"python": str, "machine": str, "cpu_count": int}
_ENGINE_FIELDS = {"jobs": int, "cache_dir": (str, type(None))}
_CACHE_FIELDS = {
    "memory_hits": int,
    "disk_hits": int,
    "misses": int,
    "stores": int,
    "disk_put_failures": int,
}
_COUNTER_FIELDS = {
    "uops": int,
    "cycles": int,
    "branches": int,
    "mispredictions": int,
    "loads": int,
    "stores": int,
}
_BATCH_FIELDS = {
    "specs": int,
    "hits": int,
    "misses": int,
    "seconds": (int, float),
    "workers": int,
}
_SPEC_FIELDS = {
    "key": str,
    "mode": str,
    "config": str,
    "profile": str,
    "uops": int,
    "seed": int,
    "cached": bool,
    "seconds": (int, float, type(None)),
}
_TIMER_FIELDS = {"name": str, "seconds": (int, float)}
_KERNEL_SUMMARY_FIELDS = {
    "groups": int,
    "batched_specs": int,
    "fallback_specs": int,
    "singleton_specs": int,
    "max_width": int,
    "seconds": (int, float),
}
_KERNEL_BATCH_FIELDS = {
    "mode": str,
    "width": int,
    "seconds": (int, float),
    "used_kernel": bool,
}
_VALIDATION_FIELDS = {
    "schema": str,
    "mode": str,
    "deep": bool,
    "status": str,
    "artifacts": list,
    "summary": dict,
}
_VALIDATION_ARTIFACT_FIELDS = {
    "artifact": str,
    "status": str,
    "cells": int,
    "drifts": list,
}
_DRIFT_FIELDS = {"path": str, "kind": str, "message": str}
_EXPLORE_FIELDS = {
    "space": str,
    "kind": str,
    "store": (str, type(None)),
    "chunk_size": int,
    "in_flight": int,
    "total_points": int,
    "unique_points": int,
    "evaluated": int,
    "skipped": int,
    "duplicates": int,
    "chunks": int,
    "frontier_size": int,
    "seconds": (int, float),
    "points_per_second": (int, float),
    "pool_reuses": int,
}
_SERVE_FIELDS = {
    "requests": int,
    "rejected": int,
    "queue_depth": int,
    "wait_seconds": (int, float),
    "service_seconds": (int, float),
    "cache_hit_ratio": (int, float),
}
_MANYCORE_FIELDS = {
    "scenario": str,
    "rows": int,
    "cols": int,
    "tiles": int,
    "apps": int,
    "folded_tiles": bool,
    "injection_rate": (int, float),
    "noc_latency": int,
    "contention_cycles": (int, float),
    "dropped_phases": int,
    "max_peak_c": (int, float),
    "thermal_grid": int,
    "seconds": (int, float),
}


def _typecheck(value: Any, expected, where: str, problems: List[str]) -> None:
    kinds = expected if isinstance(expected, tuple) else (expected,)
    # bool is an int subclass; only accept it where bool is asked for.
    if isinstance(value, bool) and bool not in kinds:
        problems.append(f"{where}: expected {kinds}, got bool")
        return
    if not isinstance(value, kinds):
        problems.append(
            f"{where}: expected {tuple(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__}"
        )


def _check_record(record: Any, fields: Dict[str, Any], where: str,
                  problems: List[str]) -> None:
    if not isinstance(record, dict):
        problems.append(f"{where}: expected an object, got "
                        f"{type(record).__name__}")
        return
    for name, expected in fields.items():
        if name not in record:
            problems.append(f"{where}: missing field {name!r}")
        else:
            _typecheck(record[name], expected, f"{where}.{name}", problems)


def _check_counter_map(mapping: Any, where: str,
                       problems: List[str]) -> None:
    if not isinstance(mapping, dict):
        problems.append(f"{where}: expected an object, got "
                        f"{type(mapping).__name__}")
        return
    for key, value in mapping.items():
        _typecheck(key, str, f"{where} key", problems)
        _typecheck(value, (int, float), f"{where}[{key!r}]", problems)
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and value < 0:
            problems.append(f"{where}[{key!r}]: negative count {value}")


def validate_manifest(manifest: Any) -> List[str]:
    """Structurally validate a manifest; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(manifest, dict):
        return [f"manifest: expected an object, got {type(manifest).__name__}"]
    if manifest.get("schema") != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema: expected {MANIFEST_SCHEMA_VERSION!r}, "
            f"got {manifest.get('schema')!r}"
        )
    for field in ("created", "command", "code_fingerprint"):
        if field not in manifest:
            problems.append(f"manifest: missing field {field!r}")
        else:
            _typecheck(manifest[field], str, field, problems)
    fingerprint = manifest.get("code_fingerprint")
    if isinstance(fingerprint, str) and (
        len(fingerprint) != 64
        or any(c not in "0123456789abcdef" for c in fingerprint)
    ):
        problems.append("code_fingerprint: not a 64-char hex digest")
    _check_record(manifest.get("platform"), _PLATFORM_FIELDS, "platform",
                  problems)
    _check_record(manifest.get("engine"), _ENGINE_FIELDS, "engine", problems)
    _check_record(manifest.get("cache"), _CACHE_FIELDS, "cache", problems)
    _check_record(manifest.get("counters"), _COUNTER_FIELDS, "counters",
                  problems)
    for section, fields in (("batches", _BATCH_FIELDS),
                            ("specs", _SPEC_FIELDS),
                            ("timers", _TIMER_FIELDS)):
        entries = manifest.get(section)
        if not isinstance(entries, list):
            problems.append(f"{section}: expected a list, got "
                            f"{type(entries).__name__}")
            continue
        for index, entry in enumerate(entries):
            _check_record(entry, fields, f"{section}[{index}]", problems)
    kernel = manifest.get("kernel")
    if not isinstance(kernel, dict):
        problems.append(f"kernel: expected an object, got "
                        f"{type(kernel).__name__}")
    else:
        _check_record(kernel.get("summary"), _KERNEL_SUMMARY_FIELDS,
                      "kernel.summary", problems)
        entries = kernel.get("batches")
        if not isinstance(entries, list):
            problems.append(f"kernel.batches: expected a list, got "
                            f"{type(entries).__name__}")
        else:
            for index, entry in enumerate(entries):
                _check_record(entry, _KERNEL_BATCH_FIELDS,
                              f"kernel.batches[{index}]", problems)
    _check_counter_map(manifest.get("stalls"), "stalls", problems)
    _check_counter_map(manifest.get("mem_level_counts"), "mem_level_counts",
                       problems)
    if "validation" in manifest:
        validation = manifest["validation"]
        _check_record(validation, _VALIDATION_FIELDS, "validation", problems)
        if isinstance(validation, dict):
            status = validation.get("status")
            if status not in ("pass", "fail", "updated"):
                problems.append(
                    f"validation.status: expected pass/fail/updated, "
                    f"got {status!r}"
                )
            entries = validation.get("artifacts")
            if isinstance(entries, list):
                for index, entry in enumerate(entries):
                    where = f"validation.artifacts[{index}]"
                    _check_record(entry, _VALIDATION_ARTIFACT_FIELDS, where,
                                  problems)
                    if isinstance(entry, dict) \
                            and isinstance(entry.get("drifts"), list):
                        for j, drift in enumerate(entry["drifts"]):
                            _check_record(drift, _DRIFT_FIELDS,
                                          f"{where}.drifts[{j}]", problems)
    if "explore" in manifest:
        explore = manifest["explore"]
        _check_record(explore, _EXPLORE_FIELDS, "explore", problems)
        if isinstance(explore, dict):
            for name in ("total_points", "unique_points", "evaluated",
                         "skipped", "duplicates", "chunks", "frontier_size",
                         "in_flight", "pool_reuses"):
                value = explore.get(name)
                if isinstance(value, int) and not isinstance(value, bool) \
                        and value < 0:
                    problems.append(f"explore.{name}: negative count {value}")
            # ``error`` is optional: present (as a string) only when the
            # run died mid-space and recorded a partial summary.
            if "error" in explore:
                _typecheck(explore["error"], str, "explore.error", problems)
    if "manycore" in manifest:
        manycore = manifest["manycore"]
        _check_record(manycore, _MANYCORE_FIELDS, "manycore", problems)
        if isinstance(manycore, dict):
            for name in ("rows", "cols", "tiles", "apps", "dropped_phases",
                         "noc_latency", "thermal_grid"):
                value = manycore.get(name)
                if isinstance(value, int) and not isinstance(value, bool) \
                        and value < 0:
                    problems.append(
                        f"manycore.{name}: negative count {value}")
    if "serve" in manifest:
        serve = manifest["serve"]
        _check_record(serve, _SERVE_FIELDS, "serve", problems)
        if isinstance(serve, dict):
            for name in ("requests", "rejected", "queue_depth"):
                value = serve.get(name)
                if isinstance(value, int) and not isinstance(value, bool) \
                        and value < 0:
                    problems.append(f"serve.{name}: negative count {value}")
            ratio = serve.get("cache_hit_ratio")
            if isinstance(ratio, (int, float)) \
                    and not isinstance(ratio, bool) \
                    and not 0.0 <= ratio <= 1.0:
                problems.append(
                    f"serve.cache_hit_ratio: {ratio} outside [0, 1]")
    return problems


def check_manifest(manifest: Any) -> None:
    """Raise :class:`ManifestError` if ``manifest`` fails validation."""
    problems = validate_manifest(manifest)
    if problems:
        raise ManifestError(
            "invalid manifest: " + "; ".join(problems[:10])
            + (f" (+{len(problems) - 10} more)" if len(problems) > 10 else "")
        )
