"""Transistor device models for the two M3D layers.

The bottom layer of an M3D stack is fabricated with a conventional
high-temperature, high-performance (HP) process.  Every layer above it must
be processed at low temperature and is therefore slower: Shi et al. [45]
measure a 17% inverter-delay penalty, and Rajendran et al. [43] measure
27.8%/16.8% PMOS/NMOS drive losses.  The paper's hetero-layer partitioning
(Section 4) compensates by *up-sizing* top-layer transistors — doubling the
access-transistor width restores drive current at the cost of area and gate
capacitance.

This module provides a small, explicit device model capturing exactly the
quantities the rest of the library needs:

* drive resistance (delay of a gate ~ R_drive * C_load),
* gate and drain capacitance (load presented to the previous stage),
* leakage current (for the power model),
* area (for footprint accounting),

all as functions of the device width multiple, threshold class and the
layer it sits on.  An LP/FDSOI top layer enters the models through its
:class:`~repro.tech.process.LayerSpec` speed and the M3D-LPtop energy table.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.tech import constants


class ProcessFlavor(enum.Enum):
    """Manufacturing flavour of a device layer.

    ``HP`` is the high-performance bulk process of the bottom layer.
    ``LP`` models the slower, low-leakage FDSOI flavour the paper suggests
    for an energy-optimised top layer (Section 5, "Hetero M3D design").
    """

    HP = "hp"
    LP = "lp"


class VtClass(enum.Enum):
    """Threshold-voltage class of a device.

    Section 4.1 notes that in a typical pipeline stage more than 60% of
    transistors are high-Vt and fewer than 25% are low-Vt; the low-Vt ones
    populate the critical paths.
    """

    LOW = "lvt"
    REGULAR = "rvt"
    HIGH = "hvt"


#: Relative drive strength of each Vt class at fixed width (LVT fastest).
_VT_DRIVE = {VtClass.LOW: 1.00, VtClass.REGULAR: 0.85, VtClass.HIGH: 0.70}

#: Relative leakage of each Vt class (LVT leaks the most, ~30x HVT).
_VT_LEAK = {VtClass.LOW: 30.0, VtClass.REGULAR: 6.0, VtClass.HIGH: 1.0}

# Unit-width (1x) NMOS-equivalent device parameters at 22nm HP.  The
# absolute values are CACTI-flavoured 22nm ITRS numbers; everything in the
# library that matters is a *ratio* against these.
#: Effective switching resistance of a unit-width device (Ohm).
UNIT_RESISTANCE: float = 12.0e3
#: Gate capacitance of a unit-width device (F).
UNIT_GATE_CAP: float = 0.05e-15
#: Drain (diffusion) capacitance of a unit-width device (F).
UNIT_DRAIN_CAP: float = 0.03e-15
#: Sub-threshold leakage of a unit-width device at 85 C (A).
UNIT_LEAKAGE: float = 20e-9
#: Layout area of a unit-width device (m^2), ~ (6F)x(10F) at F=22nm.
UNIT_AREA: float = (6 * constants.FEATURE_22NM) * (10 * constants.FEATURE_22NM)


@dataclasses.dataclass(frozen=True)
class Transistor:
    """A sized transistor on a specific M3D layer.

    Parameters
    ----------
    width:
        Width multiple relative to a unit device.  The hetero-layer
        partitioning doubles this for top-layer access transistors.
    vt:
        Threshold class; critical paths use ``LOW``, the bulk of a stage
        uses ``HIGH``.
    layer_penalty:
        Fractional drive-current loss of the hosting layer; 0 for the bottom
        layer, ``constants.TOP_LAYER_DELAY_PENALTY`` (0.17) for a
        conservatively modelled top layer.
    """

    width: float = 1.0
    vt: VtClass = VtClass.REGULAR
    layer_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"transistor width must be positive, got {self.width}")
        if not 0.0 <= self.layer_penalty < 1.0:
            raise ValueError(
                f"layer penalty must be in [0, 1), got {self.layer_penalty}"
            )

    @property
    def drive_resistance(self) -> float:
        """Effective switching resistance (Ohm).

        Resistance scales inversely with width and drive strength; a layer
        penalty of ``p`` multiplies the delay (and hence resistance) of the
        device by ``1 / (1 - p)``.
        """
        drive = _VT_DRIVE[self.vt] * (1.0 - self.layer_penalty)
        return UNIT_RESISTANCE / (self.width * drive)

    @property
    def gate_capacitance(self) -> float:
        """Input (gate) capacitance (F); linear in width."""
        return UNIT_GATE_CAP * self.width

    @property
    def drain_capacitance(self) -> float:
        """Output (drain) capacitance (F); linear in width."""
        return UNIT_DRAIN_CAP * self.width

    @property
    def leakage_current(self) -> float:
        """Sub-threshold leakage at the reference temperature (A)."""
        return UNIT_LEAKAGE * self.width * _VT_LEAK[self.vt] / _VT_LEAK[VtClass.REGULAR]

    @property
    def area(self) -> float:
        """Layout area (m^2); linear in width."""
        return UNIT_AREA * self.width
