"""repro.design — the declarative design-space layer.

One :class:`~repro.design.point.DesignPoint` names a full
(tech x stack x partition x core) point; :func:`resolve` drives the
paper's entire pipeline — via/tech models → SRAM/logic partition
planning → frequency derivation → ``CoreConfig`` → power/thermal model
construction — from the spec alone.  The registry
(:mod:`repro.design.registry`) holds every configuration the paper
evaluates plus extension points, and :func:`evaluate_points` runs any
subset of the space end-to-end through :mod:`repro.engine`.

Quickstart::

    from repro.design import DesignPoint, resolve, evaluate_points

    # A paper design, resolved from its registered spec alone:
    het = resolve("M3D-Het")
    print(het.derivation.ghz, het.config.issue_width)

    # A design the paper never built — no source edits required:
    point = DesignPoint(
        name="M3D-Het40", stack="M3D", top_layer_slowdown=0.40,
        partition="asymmetric", frequency_policy="derived",
    )
    [evaluation] = evaluate_points([point], uops=2000)
    print(evaluation.avg_speedup, evaluation.max_peak_c)
"""

from repro.design.grid import (
    GridError,
    ResolvedManycore,
    TileGrid,
    load_grid,
    resolve_manycore,
)
from repro.design.point import (
    DesignPoint,
    FREQUENCY_POLICIES,
    LAYER_FLAVORS,
    PARTITIONS,
    STACKS,
    load_points,
)
from repro.design.registry import (
    PAPER_MULTICORE,
    PAPER_SINGLE_CORE,
    TABLE11_ORDER,
    get_point,
    point_names,
    register,
    registered_points,
    registry_groups,
    unregister,
)
from repro.design.resolve import (
    ResolvedDesign,
    as_point,
    build_config,
    build_stack,
    derive_frequency,
    paper_multicore_configs,
    paper_single_core_configs,
    resolve,
)
from repro.design.sweep import (
    MULTICORE_BASELINE_CORES,
    PendingPointEvaluation,
    PointEvaluation,
    evaluate_points,
    print_sweep_summary,
    submit_points,
)

__all__ = [
    "DesignPoint",
    "FREQUENCY_POLICIES",
    "GridError",
    "LAYER_FLAVORS",
    "MULTICORE_BASELINE_CORES",
    "PAPER_MULTICORE",
    "PAPER_SINGLE_CORE",
    "PARTITIONS",
    "PendingPointEvaluation",
    "PointEvaluation",
    "ResolvedDesign",
    "ResolvedManycore",
    "STACKS",
    "TileGrid",
    "TABLE11_ORDER",
    "as_point",
    "build_config",
    "build_stack",
    "derive_frequency",
    "evaluate_points",
    "get_point",
    "load_grid",
    "load_points",
    "paper_multicore_configs",
    "paper_single_core_configs",
    "point_names",
    "print_sweep_summary",
    "register",
    "registered_points",
    "registry_groups",
    "resolve",
    "resolve_manycore",
    "submit_points",
    "unregister",
]
