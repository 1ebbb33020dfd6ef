"""Thermal modelling: Table 10 layer stacks, Ryzen-like floorplans and a
steady-state grid solver (the HotSpot substitute)."""

from repro.thermal.floorplan import (
    Block,
    Floorplan,
    floorplan_2d,
    floorplan_folded,
)
from repro.thermal.grid import ThermalSolution, solve_floorplans, solve_stack
from repro.thermal.hotspot import ThermalReport
from repro.thermal.stack import (
    ThermalLayer,
    ThermalStack,
    stack_2d_thermal,
    stack_m3d_thermal,
    stack_tsv3d_thermal,
)

__all__ = [
    "Block",
    "Floorplan",
    "floorplan_2d",
    "floorplan_folded",
    "ThermalSolution",
    "solve_floorplans",
    "solve_stack",
    "ThermalReport",
    "ThermalLayer",
    "ThermalStack",
    "stack_2d_thermal",
    "stack_m3d_thermal",
    "stack_tsv3d_thermal",
]
