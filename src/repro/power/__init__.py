"""Power modelling: per-stack energy factors, whole-core accounting and
DVFS / iso-power derivations."""

from repro.power.core_power import (
    CorePowerModel,
    EnergyReport,
    power_model_for,
)
from repro.power.dvfs import (
    OperatingPoint,
    iso_power_core_count,
    min_voltage_at_base_frequency,
)
from repro.power.energy import (
    StackEnergyFactors,
    factors_for_stack,
    vdd_dynamic_scale,
    vdd_leakage_scale,
)

__all__ = [
    "CorePowerModel",
    "EnergyReport",
    "power_model_for",
    "OperatingPoint",
    "iso_power_core_count",
    "min_voltage_at_base_frequency",
    "StackEnergyFactors",
    "factors_for_stack",
    "vdd_dynamic_scale",
    "vdd_leakage_scale",
]
