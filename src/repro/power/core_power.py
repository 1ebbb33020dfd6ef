"""Whole-core power/energy accounting (the McPAT substitute).

Calibration: the 2D baseline core averages 6.4 W (Section 7.1.3) at
3.3 GHz.  Dynamic energy is charged per micro-op (arrays + logic + wires,
modulated by the op's memory behaviour), per cycle (clock tree — it burns
whether or not work retires), and per second (leakage).  Each 3D stack
multiplies the components by the factors of :mod:`repro.power.energy`,
and voltage scaling applies for the iso-power multicore (0.75 V).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.core.configs import CoreConfig
from repro.power.energy import (
    StackEnergyFactors,
    factors_for_stack,
    vdd_dynamic_scale,
    vdd_leakage_scale,
)
from repro.uarch.multicore import MulticoreResult
from repro.uarch.ooo import SimResult

# -- Base-core calibration (2D, 3.3 GHz, 0.8 V) -----------------------------

#: Dynamic energy per committed micro-op (J), split by component.
ENERGY_PER_UOP_ARRAYS: float = 0.50e-9
ENERGY_PER_UOP_LOGIC: float = 0.22e-9
ENERGY_PER_UOP_WIRES: float = 0.45e-9

#: Clock-tree energy per cycle (J) — burns every cycle, stalled or not.
ENERGY_PER_CYCLE_CLOCK: float = 0.55e-9

#: Leakage power of one core (W) at nominal voltage and temperature.
LEAKAGE_WATTS: float = 1.5

#: Extra array energy per off-core access (L2/L3 round trips, J).
ENERGY_PER_L2_ACCESS: float = 0.35e-9
ENERGY_PER_L3_ACCESS: float = 0.9e-9


@dataclasses.dataclass(frozen=True)
class EnergyReport:
    """Energy of one run, by component (J)."""

    config_name: str
    trace_name: str
    arrays: float
    logic: float
    wires: float
    clock: float
    leakage: float
    uncore: float
    seconds: float

    @property
    def dynamic(self) -> float:
        return self.arrays + self.logic + self.wires + self.clock + self.uncore

    @property
    def total(self) -> float:
        return self.dynamic + self.leakage

    @property
    def average_power(self) -> float:
        return self.total / self.seconds if self.seconds else 0.0

    def normalized_to(self, base: "EnergyReport", run: object = None,
                      base_run: object = None) -> float:
        """Energy relative to a baseline run of the same work.

        Given the two multicore runs, the comparison is at equal total
        work: this energy is scaled by the baseline's micro-ops over the
        run's.
        """
        scale = 1.0
        if run is not None:
            scale = max(1, base_run.total_uops) / max(1, run.total_uops)
        return self.total * scale / base.total


class CorePowerModel:
    """Maps simulation activity to energy for one configuration.

    :func:`power_model_for` is the one place that picks a design's
    energy-factor table; build models through it.
    """

    def __init__(self, config: CoreConfig, factors: StackEnergyFactors) -> None:
        self.config = config
        self.factors = factors
        self._dyn_scale = vdd_dynamic_scale(config.vdd)
        self._leak_scale = vdd_leakage_scale(config.vdd)

    def evaluate(self, result: SimResult) -> EnergyReport:
        """Energy of one single-core run."""
        stats = result.stats
        f = self.factors
        uops = stats.uops
        arrays = uops * ENERGY_PER_UOP_ARRAYS * f.arrays * self._dyn_scale
        logic = uops * ENERGY_PER_UOP_LOGIC * f.logic * self._dyn_scale
        wires = uops * ENERGY_PER_UOP_WIRES * f.wires * self._dyn_scale
        clock = (
            result.cycles * ENERGY_PER_CYCLE_CLOCK * f.clock * self._dyn_scale
        )
        seconds = result.seconds
        leakage = seconds * LEAKAGE_WATTS * f.leakage_power * self._leak_scale

        levels: Dict[str, int] = stats.mem_level_counts
        uncore = (
            levels.get("L2", 0) * ENERGY_PER_L2_ACCESS * f.arrays
            + levels.get("L3", 0) * ENERGY_PER_L3_ACCESS * f.arrays
            + levels.get("DRAM", 0) * ENERGY_PER_L3_ACCESS * f.arrays
        ) * self._dyn_scale
        return EnergyReport(
            config_name=result.config_name,
            trace_name=result.trace_name,
            arrays=arrays,
            logic=logic,
            wires=wires,
            clock=clock,
            leakage=leakage,
            uncore=uncore,
            seconds=seconds,
        )

    def evaluate_multicore(self, result: MulticoreResult) -> EnergyReport:
        """Energy of a multicore run: core energies plus idle (barrier-
        wait) clock and leakage of every core over the aligned runtime."""
        f = self.factors
        arrays = logic = wires = uncore = 0.0
        for core_result in result.per_core:
            report = self.evaluate(core_result)
            arrays += report.arrays
            logic += report.logic
            wires += report.wires
            uncore += report.uncore
        cores = self.config.num_cores
        # Clock and leakage run for the *aligned* total time on every core
        # (barrier waiting is not free).
        clock = (
            result.cycles * cores * ENERGY_PER_CYCLE_CLOCK * f.clock
            * self._dyn_scale
        )
        seconds = result.seconds
        leakage = (
            seconds * cores * LEAKAGE_WATTS * f.leakage_power * self._leak_scale
        )
        return EnergyReport(
            config_name=result.config_name,
            trace_name=result.trace_name,
            arrays=arrays,
            logic=logic,
            wires=wires,
            clock=clock,
            leakage=leakage,
            uncore=uncore,
            seconds=seconds,
        )


def power_model_for(design) -> CorePowerModel:
    """Build the power model for a design.

    Accepts a :class:`CoreConfig`, a :class:`~repro.design.point.DesignPoint`,
    a :class:`~repro.design.resolve.ResolvedDesign`, or a registered
    design-point name.  Design points may override the energy-factor
    table with their ``power_stack`` field (e.g. ``"M3D-LPtop"``);
    otherwise the factors follow the config's stack and hetero flag.
    """
    point = None
    if isinstance(design, str):
        # Imported lazily: repro.design builds CorePowerModel instances.
        from repro.design.resolve import resolve

        design = resolve(design)
    if not isinstance(design, CoreConfig):
        from repro.design.point import DesignPoint
        from repro.design.resolve import ResolvedDesign, resolve

        if isinstance(design, DesignPoint):
            design = resolve(design)
        if not isinstance(design, ResolvedDesign):
            raise TypeError(
                f"cannot build a power model from {type(design).__name__}"
            )
        point = design.point
        design = design.config
    config = design
    if point is not None and point.power_stack is not None:
        return CorePowerModel(config, factors_for_stack(point.power_stack))
    stack_key = {
        "2D": "2D",
        "TSV3D": "TSV3D",
        "M3D": "M3D" if config.hetero else "M3D-Iso",
    }[config.stack]
    return CorePowerModel(config, factors_for_stack(stack_key))
