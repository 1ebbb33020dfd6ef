"""Peak-temperature evaluation per design (Figure 8).

For each application the paper reports the hottest point in the core for
Base (2D), TSV3D and M3D-Het.  Here, the power model's per-app core power
feeds the app-aware floorplan, which feeds the grid solver on the right
stack.  The expected shape: M3D-Het ~5C above Base on average (max ~10C),
TSV3D ~30C above and over Tjmax ~ 100C for the hottest applications.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.thermal.floorplan import (
    floorplan_2d,
    floorplan_folded,
    floorplan_manycore,
    tile_cell_spans,
)
from repro.thermal.grid import ThermalSolution, solve_floorplans
from repro.thermal.stack import (
    ThermalStack,
    stack_2d_thermal,
    stack_m3d_thermal,
    stack_tsv3d_thermal,
)
from repro.workloads.profiles import AppProfile


@dataclasses.dataclass(frozen=True)
class ThermalReport:
    """Peak temperature of one design running one application."""

    design: str
    trace_name: str
    peak_c: float
    bottom_layer_peak_c: float
    top_layer_peak_c: float

    @property
    def exceeds_tjmax(self) -> bool:
        return self.peak_c > 100.0


def _report(design: str, trace: str, solution: ThermalSolution,
            stack: ThermalStack) -> ThermalReport:
    active = stack.active_indices
    bottom_peak = solution.layer_peak(active[0])
    top_peak = solution.layer_peak(active[-1])
    return ThermalReport(
        design=design,
        trace_name=trace,
        peak_c=solution.peak_c,
        bottom_layer_peak_c=bottom_peak,
        top_layer_peak_c=top_peak,
    )


#: The thermal model of each stack kind, shallowest to deepest: its
#: thermal stack and its floorplan's ``hot_block_extra_saving`` (``None``
#: is the 2D floorplan; the folded ones differ in whether the
#: PP-partitioned hot blocks shed extra power).  Folding raises power
#: density, but M3D's thin ILD keeps the layers coupled (Section 7.1.3's
#: small deltas), while TSV3D's bottom die sits under 20um of dielectric.
_STACK_KINDS = {
    "2D": (stack_2d_thermal, None),
    "TSV3D": (stack_tsv3d_thermal, False),
    "M3D": (stack_m3d_thermal, True),
}


def _tile_plans(stack_kind: str, core_power: float,
                profile: Optional[AppProfile]):
    """One core's per-layer floorplans on a stack kind."""
    if stack_kind not in _STACK_KINDS:
        raise ValueError(f"no thermal model for stack {stack_kind!r}")
    hot_block_extra_saving = _STACK_KINDS[stack_kind][1]
    if hot_block_extra_saving is None:
        return [floorplan_2d(core_power, profile)]
    return floorplan_folded(core_power, profile,
                            hot_block_extra_saving=hot_block_extra_saving)


def _solve_design(design_name: str, stack_kind: str, core_power: float,
                  profile: Optional[AppProfile], grid: int) -> ThermalReport:
    """Shared driver: pick the thermal stack + floorplan for a stack kind."""
    name = profile.name if profile is not None else "uniform"
    plans = _tile_plans(stack_kind, core_power, profile)
    stack = _STACK_KINDS[stack_kind][0]()
    solution = solve_floorplans(stack, plans, grid=grid)
    return _report(design_name, name, solution, stack)


def peak_temperature_for(design, core_power: float,
                         profile: Optional[AppProfile] = None,
                         grid: int = 16) -> ThermalReport:
    """Peak temperature of any design at the given core power.

    ``design`` may be a :class:`~repro.core.configs.CoreConfig`, a
    :class:`~repro.design.point.DesignPoint`, a
    :class:`~repro.design.resolve.ResolvedDesign`, or a registered
    design-point name; the thermal stack and floorplan follow its
    ``stack`` field ("2D", "M3D" or "TSV3D").
    """
    from repro.core.configs import CoreConfig

    if isinstance(design, CoreConfig):
        return _solve_design(design.name, design.stack, core_power,
                             profile, grid)
    # Imported lazily: repro.design resolves through this module.
    from repro.design.point import DesignPoint
    from repro.design.resolve import ResolvedDesign, resolve

    if isinstance(design, (str, DesignPoint)):
        design = resolve(design)
    if not isinstance(design, ResolvedDesign):
        raise TypeError(
            f"cannot pick a thermal model for {type(design).__name__}"
        )
    return _solve_design(design.display_name, design.point.stack,
                         core_power, profile, grid)


# -- manycore: one thermal solve for a whole tile grid ------------------------

#: Ceiling on the manycore thermal grid resolution — the splu-factorized
#: solver's ~100x headroom covers a 48x48x(5-layer) system comfortably.
MANYCORE_MAX_GRID: int = 48


def manycore_grid_resolution(base_grid: int, rows: int, cols: int) -> int:
    """Scale a per-core grid resolution to a rows x cols tile mesh.

    Each tile needs roughly a core's worth of cells, so the side scales
    with the mesh's larger dimension, capped at :data:`MANYCORE_MAX_GRID`.
    """
    return min(MANYCORE_MAX_GRID, max(base_grid, base_grid * max(rows, cols)))


def manycore_temperatures(
    tile_stacks: List[str],
    tile_powers: List[float],
    profile: Optional[AppProfile] = None,
    grid: int = 32,
    name: str = "manycore",
) -> tuple:
    """Solve one chip-level thermal system for a heterogeneous tile grid.

    ``tile_stacks``/``tile_powers`` give each tile's stack kind ("2D",
    "TSV3D", "M3D") and total core power (row-major mesh order).  The
    chip uses the *deepest* stack present (M3D beats TSV3D beats 2D);
    2D tiles on a folded chip put all their power on the bottom layer
    and a zero-power filler on top.

    Returns ``(solution, tile_peaks)``: the chip-level
    :class:`~repro.thermal.grid.ThermalSolution` and each tile's peak
    temperature (C) read from exactly the grid cells its blocks heated.
    """
    if len(tile_stacks) != len(tile_powers):
        raise ValueError("one power per tile stack")
    tile_plans = [
        _tile_plans(kind, power, profile)
        for kind, power in zip(tile_stacks, tile_powers)
    ]
    depth = list(_STACK_KINDS)
    deepest = max(tile_stacks, key=depth.index, default="2D")
    stack = _STACK_KINDS[deepest][0]()
    active = stack.active_indices
    chip_plans, block_ranges = floorplan_manycore(
        tile_plans, len(active), name=name,
    )
    blocks = max(len(plan.blocks) for plan in chip_plans)
    if grid * grid < blocks:
        raise ValueError(
            f"grid {grid}x{grid} cannot place {blocks} blocks; "
            f"use manycore_grid_resolution()"
        )
    solution = solve_floorplans(stack, chip_plans, grid=grid)
    tile_peaks = [solution.ambient_c] * len(tile_plans)
    for position, layer_index in enumerate(active):
        plan = chip_plans[position]
        spans = tile_cell_spans(plan, grid, block_ranges[position])
        flat = solution.temperatures[layer_index].reshape(-1)
        for tile, (start, end) in enumerate(spans):
            if end > start:
                tile_peaks[tile] = max(
                    tile_peaks[tile], float(flat[start:end].max())
                )
    return solution, tile_peaks
