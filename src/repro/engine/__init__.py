"""Shared experiment engine: result caching + parallel sweep execution.

:mod:`repro.engine` is the single execution path for every experiment in
the repository.  It contributes three things on top of the raw models:

* a content-keyed **result cache** (:class:`~repro.engine.cache.ResultCache`)
  so each (app, config) simulation runs once, whichever sweep asks for
  it, with an optional on-disk layer that makes repeat invocations skip
  simulation entirely;
* a **parallel sweep runner**
  (:class:`~repro.engine.sweep.ExperimentEngine`) fanning (app, config)
  pairs across worker processes with deterministic result ordering and a
  serial fallback;
* cache keys that include a **code fingerprint**
  (:func:`~repro.engine.cache.code_fingerprint`), so editing any model
  source invalidates stale results automatically.
"""

from repro.engine.cache import (
    CacheStats,
    ResultCache,
    code_fingerprint,
    make_key,
)
from repro.engine.pool import pool_stats, shutdown_pool
from repro.engine.sweep import (
    ExperimentEngine,
    PendingSpecs,
    SimSpec,
    configure,
    default_settings,
    execute_spec,
    get_engine,
)

__all__ = [
    "CacheStats",
    "ExperimentEngine",
    "PendingSpecs",
    "ResultCache",
    "SimSpec",
    "code_fingerprint",
    "configure",
    "default_settings",
    "execute_spec",
    "get_engine",
    "make_key",
    "pool_stats",
    "shutdown_pool",
]
