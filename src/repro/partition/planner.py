"""Best-partition planning per structure (Tables 3, 4, 5, 6 and 8).

For each storage structure, the planner evaluates every applicable strategy
on the requested stack, ranks candidates latency-first (the paper's stated
preference), and reports percentage reductions against the 2D baseline.

On iso-layer stacks this reproduces Table 6; on the hetero-layer M3D stack
it searches the asymmetric variants of Section 4 and reproduces Table 8;
on the TSV3D stack it shows why TSVs forbid port partitioning (Table 5).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List

from repro.partition.strategies import (
    PartitionResult,
    ReductionReport,
    best_asymmetric_bp,
    best_asymmetric_pp,
    best_asymmetric_wp,
    bit_partition,
    evaluate_2d,
    port_partition,
    reduction_report,
    word_partition,
)
from repro.sram.array import ArrayGeometry
from repro.tech.process import StackSpec


@dataclasses.dataclass(frozen=True)
class StructurePlan:
    """The chosen partition for one structure plus all evaluated options."""

    geometry: ArrayGeometry
    baseline: PartitionResult
    best: PartitionResult
    best_report: ReductionReport
    candidates: Dict[str, ReductionReport]

    @property
    def strategy(self) -> str:
        """Canonical strategy family of the winner (BP/WP/PP)."""
        return canonical_strategy(self.best.strategy)


def canonical_strategy(strategy: str) -> str:
    """Map AsymBP/AsymWP/AsymPP onto their BP/WP/PP families."""
    return strategy.replace("Asym", "")


def evaluate_strategies(
    geometry: ArrayGeometry,
    stack: StackSpec,
    *,
    asymmetric: bool = False,
) -> Dict[str, PartitionResult]:
    """Evaluate every strategy applicable to a structure on a stack.

    ``asymmetric=True`` switches to the hetero-layer searches of Section 4
    (asymmetric splits, up-sized top-layer transistors); otherwise the
    symmetric Figure-3 strategies are used.  Port partitioning is skipped
    for single-ported structures ("PP cannot be applied to the BPT because
    the latter is single-ported").
    """
    results: Dict[str, PartitionResult] = {}
    if asymmetric and stack.is_hetero:
        results["BP"] = best_asymmetric_bp(geometry, stack)
        results["WP"] = best_asymmetric_wp(geometry, stack)
        if geometry.ports >= 2:
            results["PP"] = best_asymmetric_pp(geometry, stack)
    else:
        results["BP"] = bit_partition(geometry, stack)
        results["WP"] = word_partition(geometry, stack)
        if geometry.ports >= 2:
            results["PP"] = port_partition(geometry, stack)
    return results


def plan_structure(
    geometry: ArrayGeometry,
    stack: StackSpec,
    *,
    asymmetric: bool = False,
) -> StructurePlan:
    """Pick the best partition for one structure (one row of Table 6/8)."""
    baseline = evaluate_2d(geometry)
    candidates = evaluate_strategies(geometry, stack, asymmetric=asymmetric)
    reports = {
        name: reduction_report(baseline, result)
        for name, result in candidates.items()
    }
    # Latency-first (Section 3.2.3: "Our preferred choice are designs that
    # reduce the access latency"), but a design that *regresses* energy
    # relative to 2D is only chosen when nothing else helps latency.
    best_name = min(
        candidates,
        key=lambda name: (
            reports[name].energy_pct < 0.0,
            candidates[name].metrics.access_time,
            candidates[name].metrics.area,
        ),
    )
    return StructurePlan(
        geometry=geometry,
        baseline=baseline,
        best=candidates[best_name],
        best_report=reports[best_name],
        candidates=reports,
    )


def plan_core(
    geometries: Iterable[ArrayGeometry],
    stack: StackSpec,
    *,
    asymmetric: bool = False,
) -> List[StructurePlan]:
    """Plan every storage structure of a core (the full Table 6/8)."""
    return [
        plan_structure(geometry, stack, asymmetric=asymmetric)
        for geometry in geometries
    ]
