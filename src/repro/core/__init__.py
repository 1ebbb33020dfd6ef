"""Core assembly: structure inventory, frequency derivation primitives and
the Table 11 configuration record.

A paper design is named only through the design-point registry
(:mod:`repro.design`): ``resolve("M3D-Het").config`` is its
:class:`CoreConfig`."""

from repro.core.configs import CoreConfig
from repro.core.frequency import (
    BASE_FREQUENCY,
    FrequencyDerivation,
    derive_from_plans,
    frequency_from_reduction,
)
from repro.core.structures import core_structures, structures_by_name

__all__ = [
    "CoreConfig",
    "BASE_FREQUENCY",
    "FrequencyDerivation",
    "derive_from_plans",
    "frequency_from_reduction",
    "core_structures",
    "structures_by_name",
]
