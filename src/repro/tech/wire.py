"""On-chip wire delay/energy models.

Wires are the reason vertical processors win: transistor delay has scaled
faster than wire delay for decades, so wire-dominated structures (SRAM
word/bitlines, bypass networks, clock trees) dominate cycle time.  Folding a
block into two layers shortens its wires by up to ~sqrt(2)x per dimension
(~50% footprint), which is the first-order effect behind every table in the
paper.

The models here are the standard distributed-RC (Elmore) expressions used by
CACTI.
"""

from __future__ import annotations

import dataclasses

from repro.tech import constants
from repro.tech.transistor import Transistor


@dataclasses.dataclass(frozen=True)
class WireTechnology:
    """Per-unit-length electrical parameters of a metal layer.

    Attributes
    ----------
    resistance_per_m:
        Wire resistance per metre (Ohm/m).
    capacitance_per_m:
        Wire capacitance per metre (F/m), including coupling.
    name:
        Metal class label.
    """

    resistance_per_m: float = constants.WIRE_RES_PER_M
    capacitance_per_m: float = constants.WIRE_CAP_PER_M
    name: str = "local-cu"

    def __post_init__(self) -> None:
        if self.resistance_per_m <= 0 or self.capacitance_per_m <= 0:
            raise ValueError("wire RC per metre must be positive")

    def with_tungsten(self) -> "WireTechnology":
        """Tungsten variant of this metal (bottom-layer interconnect option).

        Section 2.4.2: tungsten survives the top-layer anneal but has 3x the
        resistance of copper.
        """
        return dataclasses.replace(
            self,
            resistance_per_m=self.resistance_per_m
            * constants.TUNGSTEN_RESISTANCE_FACTOR,
            name=self.name.replace("cu", "w"),
        )

    def resistance(self, length: float) -> float:
        """Total resistance of a wire of the given length (Ohm)."""
        _check_length(length)
        return self.resistance_per_m * length

    def capacitance(self, length: float) -> float:
        """Total capacitance of a wire of the given length (F)."""
        _check_length(length)
        return self.capacitance_per_m * length

    def elmore_delay(self, length: float, driver: Transistor, load_cap: float = 0.0) -> float:
        """Delay of a driver pushing a distributed-RC wire into a load (s).

        ``t = 0.69 * R_drv * (C_wire + C_load) + 0.38 * R_wire * C_wire
        + 0.69 * R_wire * C_load`` — the classic Elmore decomposition.
        The quadratic ``R_wire*C_wire`` term is why halving a wordline
        more than halves its wire delay.
        """
        _check_length(length)
        if load_cap < 0:
            raise ValueError("load capacitance must be non-negative")
        r_wire = self.resistance(length)
        c_wire = self.capacitance(length)
        r_drv = driver.drive_resistance
        return (
            0.69 * r_drv * (c_wire + load_cap)
            + 0.38 * r_wire * c_wire
            + 0.69 * r_wire * load_cap
        )

    def switching_energy(self, length: float, vdd: float, load_cap: float = 0.0) -> float:
        """Energy of one full swing of the wire plus load (J): ``C V^2``.

        (Per-transition energy is half this; we follow CACTI and charge the
        full ``C V^2`` per access with activity factors applied elsewhere.)
        """
        _check_length(length)
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        return (self.capacitance(length) + load_cap) * vdd**2


def _check_length(length: float) -> None:
    if length < 0:
        raise ValueError(f"wire length must be non-negative, got {length}")


#: Default metal classes used across the library.
LOCAL_WIRE = WireTechnology(name="local-cu")
SEMI_GLOBAL_WIRE = WireTechnology(
    resistance_per_m=constants.WIRE_RES_PER_M / 4.0,
    capacitance_per_m=constants.WIRE_CAP_PER_M * 1.1,
    name="semi-global-cu",
)