"""3D partitioning engine: strategies and per-structure planning.

This package implements the paper's primary contribution — partitioning the
storage structures of an out-of-order core across the two layers of an M3D
stack, including the hetero-layer-aware asymmetric variants of Section 4.
"""

from repro.partition.planner import (
    StructurePlan,
    canonical_strategy,
    evaluate_strategies,
    plan_core,
    plan_structure,
)
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

__all__ = [
    "StructurePlan",
    "canonical_strategy",
    "evaluate_strategies",
    "plan_core",
    "plan_structure",
    "PartitionResult",
    "ReductionReport",
    "best_asymmetric_bp",
    "best_asymmetric_pp",
    "best_asymmetric_wp",
    "bit_partition",
    "evaluate_2d",
    "port_partition",
    "reduction_report",
    "word_partition",
]
