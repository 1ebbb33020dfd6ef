"""Engine-side telemetry entries: per-batch, per-group and per-spec.

The :class:`~repro.engine.sweep.ExperimentEngine` feeds the active
:class:`~repro.obs.record.RunRecord` from ``run_specs``:

* one :class:`BatchRecord` per batch (spec count, hit/miss split, wall
  time, workers used),
* one :class:`KernelBatchRecord` per same-trace spec group,
* one :class:`SpecTiming` per spec (content key, identity, whether it
  was served from cache, and — for fresh simulations — its wall time),

plus the aggregated stall/activity/memory-level counters the record
keeps.  This module deliberately imports nothing from ``repro.engine``
or ``repro.uarch`` — results are consumed by duck typing — so it can be
loaded from anywhere in the stack without cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

#: Activity counters aggregated from every result the engine serves.
COUNTER_FIELDS = (
    "uops",
    "cycles",
    "branches",
    "mispredictions",
    "loads",
    "stores",
)


@dataclasses.dataclass
class SpecTiming:
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
    seconds: Optional[float] = None

    def as_record(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "mode": self.mode,
            "config": self.config,
            "profile": self.profile,
            "uops": self.uops,
            "seed": self.seed,
            "cached": self.cached,
            "seconds": (
                round(self.seconds, 6) if self.seconds is not None else None
            ),
        }


@dataclasses.dataclass
class BatchRecord:
    """One ``run_specs`` call: size, hit/miss split, time, workers."""

    specs: int
    hits: int
    misses: int
    seconds: float
    workers: int

    def as_record(self) -> Dict[str, object]:
        return {
            "specs": self.specs,
            "hits": self.hits,
            "misses": self.misses,
            "seconds": round(self.seconds, 6),
            "workers": self.workers,
        }


@dataclasses.dataclass
class KernelBatchRecord:
    """One work unit (a same-trace spec group, or a shard of one): how
    it was executed and how wide.

    ``used_kernel`` is False when the unit ran through the scalar
    oracle, which only ``$REPRO_KERNEL=0`` selects.
    """

    mode: str
    width: int
    seconds: float
    used_kernel: bool

    def as_record(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "width": self.width,
            "seconds": round(self.seconds, 6),
            "used_kernel": self.used_kernel,
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
