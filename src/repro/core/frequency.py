"""Core cycle-time / frequency derivation (Section 6.1).

The register-file access limits the 2D core's cycle time at 3.3 GHz.  Every
3D design's frequency follows from the smallest per-structure access-time
reduction, under the conservative assumption that *all* array structures
are on the critical path:

    f_3d = f_base / (1 - min_i latency_reduction_i)

The aggressive variants (M3D-IsoAgg / M3D-HetAgg) instead consider only the
traditionally frequency-critical structures (RF, IQ, ALU+bypass), so their
limiter is the IQ's reduction.

This module owns the derivation *primitives* (:func:`derive_from_plans`,
:func:`derive_from_reference`, :func:`apply_naive_loss`).  Each paper
design is a registered :class:`~repro.design.point.DesignPoint` whose
frequency policy drives these primitives:
``repro.design.resolve.derive_frequency("M3D-Het")`` derives a registered
design by name, and arbitrary new points go through the same pipeline.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional

from repro.partition.planner import StructurePlan
from repro.tech import constants

#: 2D baseline core frequency (Hz), set by the RF access time (Section 6.1).
BASE_FREQUENCY: float = 3.3e9

#: Frequency loss of the naive hetero design, from Shi et al.'s AES block
#: (Section 6.1: "slows its frequency by 9%").
NAIVE_HETERO_LOSS: float = constants.NAIVE_FREQ_LOSS_AES


@dataclasses.dataclass(frozen=True)
class FrequencyDerivation:
    """How a design's frequency was obtained."""

    design: str
    frequency: float
    limiting_structure: str
    limiting_reduction: float
    plans: Optional[List[StructurePlan]] = None

    @property
    def ghz(self) -> float:
        return self.frequency / 1e9


def frequency_from_reduction(reduction: float) -> float:
    """``f = f_base / (1 - reduction)`` — shorter stage, faster clock."""
    if not 0.0 <= reduction < 1.0:
        raise ValueError(f"latency reduction {reduction} out of range")
    return BASE_FREQUENCY / (1.0 - reduction)


def _limiting(plans: Iterable[StructurePlan],
              only: Optional[Iterable[str]] = None) -> StructurePlan:
    """The plan with the smallest latency reduction (the frequency limiter)."""
    chosen = [
        plan
        for plan in plans
        if only is None or plan.geometry.name in set(only)
    ]
    if not chosen:
        raise ValueError("no structures to derive a frequency from")
    return min(chosen, key=lambda plan: plan.best_report.latency_pct)


def derive_from_plans(
    design: str,
    plans: List[StructurePlan],
    *,
    only: Optional[Iterable[str]] = None,
) -> FrequencyDerivation:
    """Derive a design's frequency from its per-structure partition plans."""
    limiter = _limiting(plans, only)
    reduction = max(0.0, limiter.best_report.latency_pct / 100.0)
    return FrequencyDerivation(
        design=design,
        frequency=frequency_from_reduction(reduction),
        limiting_structure=limiter.geometry.name,
        limiting_reduction=reduction,
        plans=plans,
    )


def derive_from_reference(
    design: str,
    table: Dict,
    only: Optional[Iterable[str]] = None,
) -> FrequencyDerivation:
    """Derive a frequency from a published reduction table (Table 6/8)."""
    names = set(only) if only is not None else set(table)
    limiter = min(
        (name for name in table if name in names),
        key=lambda name: table[name].latency,
    )
    reduction = table[limiter].latency / 100.0
    return FrequencyDerivation(
        design=design,
        frequency=frequency_from_reduction(reduction),
        limiting_structure=limiter,
        limiting_reduction=reduction,
    )


def apply_naive_loss(
    iso: FrequencyDerivation,
    design: str = "M3D-HetNaive",
    loss: Optional[float] = None,
) -> FrequencyDerivation:
    """Slow an iso-layer derivation by the naive hetero loss (Shi et al.)."""
    loss = NAIVE_HETERO_LOSS if loss is None else loss
    return FrequencyDerivation(
        design=design,
        frequency=iso.frequency * (1.0 - loss),
        limiting_structure=iso.limiting_structure,
        limiting_reduction=iso.limiting_reduction,
        plans=iso.plans,
    )
