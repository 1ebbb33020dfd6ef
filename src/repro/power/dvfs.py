"""Voltage/frequency scaling and the iso-power core-count derivation.

Section 6.1 builds M3D-Het-2X by: (1) pinning the M3D-Het design back to
the base 3.3 GHz, (2) lowering the voltage as far as the literature's
curves allow (50 mV, to 0.75 V), and (3) adding cores until the multicore
hits the 4-core 2D baseline's power budget — landing between 7 and 8
cores, rounded up to 8.

This module reproduces that derivation from the power model.
"""

from __future__ import annotations

import dataclasses
import math

from repro.power.energy import vdd_dynamic_scale, vdd_leakage_scale
from repro.tech import constants

#: Maximum safe voltage reduction at the base frequency, from the
#: ScalCore / wide-operating-range literature [18, 23] (V).
MAX_VDD_REDUCTION: float = 0.05

#: Cores of the 2D multicore whose power budget M3D-Het-2X matches
#: (Section 6.1).
BASE_CORES: int = 4

#: Leakage share of an M3D core's power at the reduced voltage.
LEAKAGE_FRACTION: float = 0.18


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """A (frequency, voltage) pair with its power scale vs nominal."""

    frequency: float
    vdd: float

    @property
    def dynamic_power_scale(self) -> float:
        """Dynamic power ~ f * V^2, normalised to 3.3 GHz / 0.8 V."""
        f_scale = self.frequency / 3.3e9
        return f_scale * vdd_dynamic_scale(self.vdd)

    @property
    def leakage_power_scale(self) -> float:
        return vdd_leakage_scale(self.vdd)


def min_voltage_at_base_frequency() -> float:
    """The lowest safe Vdd when running the M3D design at 3.3 GHz.

    The M3D-Het design has cycle-time slack at the base frequency (its
    structures are ~13% faster), which the voltage reduction consumes;
    the literature caps the reduction at 50 mV.
    """
    return constants.VDD_NOMINAL_22NM - MAX_VDD_REDUCTION


def iso_power_core_count() -> int:
    """Cores an M3D multicore can run in the 2D baseline's power budget.

    The M3D core's power relative to a 2D core at the reduced voltage
    combines the 3D dynamic-energy savings (~35-40%) with the V=0.75 V
    scaling.  The paper lands "in between 7 and 8" and rounds up to 8 for
    power-of-two core counts.
    """
    point = OperatingPoint(frequency=3.3e9, vdd=min_voltage_at_base_frequency())
    dynamic = 0.60 * point.dynamic_power_scale  # 3D dynamic savings
    leakage = point.leakage_power_scale
    per_core_power_scale = (
        (1.0 - LEAKAGE_FRACTION) * dynamic + LEAKAGE_FRACTION * leakage
    )
    raw = BASE_CORES / per_core_power_scale
    # Parallel applications want power-of-two counts; the paper rounds the
    # "between 7 and 8" budget to 8 (Section 6.1, tolerating a modest
    # overshoot that Section 7.2.2 reports as ~13% extra power).
    return 2 ** int(round(math.log2(max(1.0, raw))))
