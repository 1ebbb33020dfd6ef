"""Per-component energy factors for each stack (the McPAT substitute's
technology layer).

The 2D baseline core consumes ~6.4 W on average (Section 7.1.3).  Its
energy decomposes into storage-array accesses, logic-stage switching,
semi-global interconnect, the clock tree, and leakage.  Each 3D stack
scales those components:

* **arrays** — activity-weighted mean of the per-structure access-energy
  ratios produced by the partition planner (Tables 6/8: the real model
  output, not a constant);
* **logic** — the execute-stage switching reduction measured by the
  Section 3.1 layout study (:func:`repro.logic.bypass.evaluate_execute_stage`);
* **wires** — semi-global interconnect scales with the folded footprint;
* **clock** — the clock tree covers half the footprint and its switching
  power drops by the Section 6 constant;
* **leakage** — per the paper, leakage *power* is unchanged; faster
  execution converts it into an energy saving.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict

from repro.core import structures as structdefs
from repro.logic.bypass import evaluate_execute_stage
from repro.partition.planner import plan_core
from repro.tech import constants
from repro.tech.process import (
    StackSpec,
    stack_m3d_hetero,
    stack_m3d_iso,
    stack_tsv3d,
)

#: Activity weight of each storage structure in core dynamic energy
#: (accesses per committed micro-op x per-access energy share).
ARRAY_ACTIVITY_WEIGHTS: Dict[str, float] = {
    "RF": 0.30,
    "IQ": 0.14,
    "RAT": 0.06,
    "SQ": 0.04,
    "LQ": 0.04,
    "BPT": 0.04,
    "BTB": 0.03,
    "DTLB": 0.04,
    "ITLB": 0.02,
    "IL1": 0.07,
    "DL1": 0.13,
    "L2": 0.09,
}

#: Wire/clock footprint-driven energy factor of a folded design: length
#: scales with the footprint for stackable endpoints (Section 3.1), plus
#: the Section 6 constant 25% switching reduction for the clock tree.
M3D_WIRE_FACTOR: float = 1.0 - constants.FOOTPRINT_REDUCTION_LOGIC  # 0.59
M3D_CLOCK_FACTOR: float = M3D_WIRE_FACTOR * (
    1.0 - constants.CLOCK_TREE_POWER_REDUCTION_3D
)  # ~0.44
TSV_WIRE_FACTOR: float = 0.80
TSV_CLOCK_FACTOR: float = 1.0 - constants.CLOCK_TREE_POWER_REDUCTION_3D  # 0.75


@dataclasses.dataclass(frozen=True)
class StackEnergyFactors:
    """Energy multipliers of one stack relative to the 2D baseline."""

    stack: str
    arrays: float
    logic: float
    wires: float
    clock: float
    leakage_power: float = 1.0

    def __post_init__(self) -> None:
        for field in ("arrays", "logic", "wires", "clock", "leakage_power"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} factor must be positive")


def _array_energy_factor(stack: StackSpec, asymmetric: bool) -> float:
    """Activity-weighted array energy ratio vs 2D, from the planner."""
    plans = plan_core(
        structdefs.core_structures(), stack, asymmetric=asymmetric
    )
    weighted = 0.0
    total_weight = 0.0
    for plan in plans:
        weight = ARRAY_ACTIVITY_WEIGHTS.get(plan.geometry.name, 0.02)
        ratio = 1.0 - plan.best_report.energy_pct / 100.0
        weighted += weight * ratio
        total_weight += weight
    return weighted / total_weight


@functools.lru_cache(maxsize=None)
def factors_for_stack(stack_name: str) -> StackEnergyFactors:
    """Energy factors for a named stack ("2D", "M3D", "M3D-Iso", "TSV3D"...).

    Cached: computing the array factor runs the full partition planner.
    """
    if stack_name == "2D":
        return StackEnergyFactors("2D", 1.0, 1.0, 1.0, 1.0)
    if stack_name in ("M3D", "M3D-Het"):
        stack = stack_m3d_hetero()
        arrays = _array_energy_factor(stack, asymmetric=True)
        logic = 1.0 - evaluate_execute_stage(4).energy_reduction
        return StackEnergyFactors(
            "M3D", arrays, logic, M3D_WIRE_FACTOR, M3D_CLOCK_FACTOR
        )
    if stack_name == "M3D-Iso":
        stack = stack_m3d_iso()
        arrays = _array_energy_factor(stack, asymmetric=False)
        logic = 1.0 - evaluate_execute_stage(4, top_penalty=0.0).energy_reduction
        return StackEnergyFactors(
            "M3D-Iso", arrays, logic, M3D_WIRE_FACTOR, M3D_CLOCK_FACTOR
        )
    if stack_name == "M3D-LPtop":
        base = factors_for_stack("M3D")
        # Section 7.1.2: an LP (FDSOI) top layer saves a further ~9 energy
        # points, largely by cutting top-layer switching and leakage.
        return StackEnergyFactors(
            "M3D-LPtop",
            base.arrays * 0.88,
            base.logic * 0.90,
            base.wires,
            base.clock,
            leakage_power=0.55,
        )
    if stack_name == "TSV3D":
        stack = stack_tsv3d()
        arrays = _array_energy_factor(stack, asymmetric=False)
        return StackEnergyFactors(
            "TSV3D", arrays, 0.97, TSV_WIRE_FACTOR, TSV_CLOCK_FACTOR
        )
    raise ValueError(f"unknown stack {stack_name!r}")


def vdd_dynamic_scale(vdd: float) -> float:
    """Dynamic energy scales as V^2, relative to the nominal 22nm supply."""
    if vdd <= 0:
        raise ValueError("vdd must be positive")
    return (vdd / constants.VDD_NOMINAL_22NM) ** 2


def vdd_leakage_scale(vdd: float) -> float:
    """Leakage power scales super-linearly with V (DIBL); we use V^3."""
    if vdd <= 0:
        raise ValueError("vdd must be positive")
    return (vdd / constants.VDD_NOMINAL_22NM) ** 3
