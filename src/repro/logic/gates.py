"""Gate-level delay/energy primitives (logical-effort style).

The logic-stage models (adder, bypass, select trees) are built from a small
set of gate types characterised by logical effort, parasitic delay, input
capacitance and switching energy.  Delays compose along netlist paths via
:mod:`repro.logic.netlist`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict

from repro.tech import constants
from repro.tech.transistor import Transistor, VtClass


class GateType(enum.Enum):
    """Static CMOS gate types used by the stage models."""

    INV = "inv"
    NAND2 = "nand2"
    NOR2 = "nor2"
    AOI = "aoi"
    XOR2 = "xor2"
    MUX2 = "mux2"
    BUF = "buf"


#: Logical effort g (relative drive difficulty) per gate type.
_LOGICAL_EFFORT: Dict[GateType, float] = {
    GateType.INV: 1.0,
    GateType.NAND2: 4.0 / 3.0,
    GateType.NOR2: 5.0 / 3.0,
    GateType.AOI: 2.0,
    GateType.XOR2: 2.2,
    GateType.MUX2: 2.0,
    GateType.BUF: 1.0,
}

#: Parasitic delay p (in units of 0.69 * R_drive * C_drain) per gate type.
_PARASITIC: Dict[GateType, float] = {
    GateType.INV: 1.0,
    GateType.NAND2: 2.0,
    GateType.NOR2: 2.0,
    GateType.AOI: 3.0,
    GateType.XOR2: 4.0,
    GateType.MUX2: 3.5,
    GateType.BUF: 2.0,
}

#: Transistor count per gate (for area/leakage/energy accounting).
_DEVICE_COUNT: Dict[GateType, int] = {
    GateType.INV: 2,
    GateType.NAND2: 4,
    GateType.NOR2: 4,
    GateType.AOI: 6,
    GateType.XOR2: 10,
    GateType.MUX2: 8,
    GateType.BUF: 4,
}


@dataclasses.dataclass(frozen=True)
class Gate:
    """One sized gate on one layer.

    Parameters
    ----------
    kind:
        Gate type (sets logical effort and parasitics).
    size:
        Drive-strength multiple relative to a unit inverter.
    vt:
        Threshold class; critical paths use LOW, filler logic HIGH.
    layer_penalty:
        Drive penalty of the hosting M3D layer.
    """

    kind: GateType = GateType.INV
    size: float = 1.0
    vt: VtClass = VtClass.REGULAR
    layer_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("gate size must be positive")

    @property
    def _device(self) -> Transistor:
        return Transistor(width=self.size, vt=self.vt, layer_penalty=self.layer_penalty)

    @property
    def input_capacitance(self) -> float:
        """Capacitance presented to the driving gate (F)."""
        return self._device.gate_capacitance * _LOGICAL_EFFORT[self.kind]

    @property
    def drive_resistance(self) -> float:
        """Output resistance (Ohm)."""
        return self._device.drive_resistance * _LOGICAL_EFFORT[self.kind]

    def delay(self, load_capacitance: float) -> float:
        """Gate delay into a load (s): effort delay plus parasitic."""
        if load_capacitance < 0:
            raise ValueError("load capacitance must be non-negative")
        device = self._device
        effort = 0.69 * device.drive_resistance * _LOGICAL_EFFORT[self.kind] * load_capacitance
        parasitic = _PARASITIC[self.kind] * 0.69 * device.drive_resistance * device.drain_capacitance
        return effort + parasitic

    def switching_energy(self, vdd: float = constants.VDD_NOMINAL_22NM) -> float:
        """Internal switching energy of one output transition (J)."""
        device = self._device
        internal_cap = device.gate_capacitance * _DEVICE_COUNT[self.kind] / 2.0
        return internal_cap * vdd**2

    @property
    def leakage_current(self) -> float:
        """Gate leakage (A)."""
        return self._device.leakage_current * _DEVICE_COUNT[self.kind] / 2.0

    def on_layer(self, penalty: float) -> "Gate":
        """Copy of this gate on a layer with the given penalty."""
        return dataclasses.replace(self, layer_penalty=penalty)
