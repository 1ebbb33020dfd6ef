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

:func:`build_manifest` writes, and :func:`validate_manifest` checks,
each part by its declaration in :mod:`repro.obs.telemetry`.  The
validator is dependency-free (``python -m repro.obs <manifest.json>``
runs it from the command line; CI fails if the benchmark's manifest does
not validate).
"""

from __future__ import annotations

import dataclasses
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import (Annotated, Any, Dict, List, Literal, Optional, Union,
                    get_args, get_origin)

from repro.obs.record import RunRecord
from repro.obs.telemetry import (COUNT, NOTE, PARTS, RATIO, SECTIONS, Counts,
                                 EngineSection, PlatformSection, declared,
                                 marks, written)

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
                   engine: Optional[object] = None) -> Dict[str, Any]:
    """Assemble the manifest describing ``record``, stamped now.

    ``engine`` (default: the process engine) supplies only the static
    ``engine`` section, its job count and cache directory.
    """
    # Imported lazily: repro.engine imports repro.obs, so a module-level
    # import here would be circular.
    import platform

    from repro.engine.cache import code_fingerprint

    if engine is None:
        from repro.engine.sweep import get_engine

        engine = get_engine()
    cache_dir = engine.cache.cache_dir
    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "code_fingerprint": code_fingerprint(),
        "platform": PlatformSection(platform.python_version(),
                                    platform.machine(),
                                    os.cpu_count() or 1).as_record(),
        "engine": EngineSection(
            engine.jobs, str(cache_dir) if cache_dir is not None else None,
        ).as_record(),
    }
    for key, attr, declaration in PARTS:
        value = getattr(record, attr)
        if isinstance(value, list):
            value = [entry.as_record() for entry in value]
        else:
            value = dict(value) if declaration is Counts \
                else written(declaration, value)
        outer, _, inner = key.partition(".")
        if inner:
            manifest.setdefault(outer, {})[inner] = value
        else:
            manifest[outer] = value
    for name in SECTIONS:
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


def _check(value: Any, hint: Any, where: str, problems: List[str]) -> None:
    """Append to ``problems`` every way ``value`` breaks ``hint``, a
    declaration or one of its field annotations."""
    origin, args = get_origin(hint), get_args(hint)
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            problems.append(f"{where}: expected an object, got "
                            f"{type(value).__name__}")
            return
        for name, field in declared(hint).items():
            if name in value:
                _check(value[name], field, f"{where}.{name}", problems)
            elif NOTE not in marks(field):
                problems.append(f"{where}: missing field {name!r}")
    elif origin is Annotated:
        _check(value, args[0], where, problems)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if COUNT in args and value < 0:
                problems.append(f"{where}: negative count {value}")
            if RATIO in args and not 0.0 <= value <= 1.0:
                problems.append(f"{where}: {value} outside [0, 1]")
    elif origin is Union:  # Optional[...]
        if value is not None:
            _check(value, args[0], where, problems)
    elif origin is Literal:
        if value not in args:
            problems.append(f"{where}: expected one of {args}, got {value!r}")
    elif origin in (list, dict):
        if not isinstance(value, origin):
            problems.append(f"{where}: expected a {origin.__name__}, got "
                            f"{type(value).__name__}")
            return
        for key, item in (enumerate(value) if origin is list
                          else value.items()):
            if origin is dict:
                _check(key, args[0], f"{where} key", problems)
            _check(item, args[-1], f"{where}[{key!r}]", problems)
    # bool is an int subclass; only accept it where bool is asked for.
    elif not isinstance(value, (int, float) if hint is float else hint) \
            or isinstance(value, bool) and hint is not bool:
        problems.append(f"{where}: expected {hint.__name__}, got "
                        f"{type(value).__name__}")


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
            _check(manifest[field], str, field, problems)
    fingerprint = manifest.get("code_fingerprint")
    if isinstance(fingerprint, str) and (
        len(fingerprint) != 64
        or any(c not in "0123456789abcdef" for c in fingerprint)
    ):
        problems.append("code_fingerprint: not a 64-char hex digest")
    parts = [("platform", PlatformSection), ("engine", EngineSection),
             *((key, declaration) for key, _, declaration in PARTS)]
    for key, declaration in parts:
        value = manifest
        for name in key.split("."):
            value = value.get(name) if isinstance(value, dict) else None
        _check(value, declaration, key, problems)
    for name, declaration in SECTIONS.items():
        if name in manifest:
            _check(manifest[name], declaration, name, problems)
    return problems


def check_manifest(manifest: Any) -> None:
    """Raise :class:`ManifestError` if ``manifest`` fails validation."""
    problems = validate_manifest(manifest)
    if problems:
        raise ManifestError(
            "invalid manifest: " + "; ".join(problems[:10])
            + (f" (+{len(problems) - 10} more)" if len(problems) > 10 else "")
        )
