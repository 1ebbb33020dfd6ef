"""Observability layer: run records, run manifests, named timers.

:mod:`repro.obs` is the reporting surface the rest of the stack threads
through:

* :class:`~repro.obs.record.RunRecord` — what one CLI invocation or one
  served request did (engine telemetry, cache deltas, timer spans,
  summary sections), opened with :func:`~repro.obs.record.run_record`
  and found by the engine, the cache and the timers through a context
  variable;
* :func:`~repro.obs.timer.timer` — the one wall-clock primitive
  (``scripts/bench.py`` and the manifests share its span format);
* :func:`~repro.obs.manifest.build_manifest` /
  :func:`~repro.obs.manifest.validate_manifest` — schema-versioned JSON
  views of one record (``--metrics-out`` / ``$REPRO_METRICS`` on every
  entry point; ``python -m repro.obs`` validates one from the shell).

Each part of a manifest is declared once, in :mod:`repro.obs.telemetry`:
records, manifests and the validator all read that declaration.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    check_manifest,
    metrics_path,
    validate_manifest,
    write_manifest,
)
from repro.obs.record import (
    RunRecord,
    attach_section,
    current_record,
    run_record,
)
from repro.obs.telemetry import (
    BatchRecord,
    KernelBatchRecord,
    ModelDisagreementWarning,
    SpecTiming,
    TimerSpan,
    warn_model_disagreement,
)
from repro.obs.timer import timer

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "BatchRecord",
    "KernelBatchRecord",
    "ManifestError",
    "ModelDisagreementWarning",
    "RunRecord",
    "SpecTiming",
    "warn_model_disagreement",
    "TimerSpan",
    "attach_section",
    "build_manifest",
    "check_manifest",
    "current_record",
    "metrics_path",
    "run_record",
    "timer",
    "validate_manifest",
    "write_manifest",
]
