"""Bitcell geometry and electrical models.

The two "basic rules" of Section 3.2 fall straight out of this module:

1. *"The area is proportional to the square of the number of ports"* — every
   port adds a wordline track to the cell height and a bitline-pair track to
   the cell width, so a P-ported cell grows in both dimensions.
2. *"Both the array access latency and the energy consumed depend in large
   measure on the length of the wordlines and bitlines"* — wordline/bitline
   length is ``cells x cell pitch``, so cell geometry sets wire length.

Port-partitioned cells (Figure 3(c)) are modelled by building *half cells*:
the bottom half keeps the cross-coupled inverters plus its share of ports,
the top half holds only ports (possibly up-sized, Section 4.2.1).  The two
half-cells must align vertically, so the array pitch is the max of the two.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.tech.transistor import Transistor, VtClass
from repro.tech.via import Via

# Layout coefficients at 22nm (metres).  These are CACTI-flavoured values:
# a 6T single-port cell of ~0.50um x 0.25um, with each extra port adding a
# bitline-pair track to the width and a wordline track to the height.
BASE_CELL_WIDTH: float = 0.50e-6
BASE_CELL_HEIGHT: float = 0.25e-6
PORT_WIDTH_PITCH: float = 0.20e-6
PORT_HEIGHT_PITCH: float = 0.12e-6

#: Extra width/height tracks per CAM cell for the match line and the
#: comparison transistors (Section 4.4: "usually 4" extra transistors).
CAM_EXTRA_WIDTH: float = 0.12e-6
CAM_EXTRA_HEIGHT: float = 0.08e-6

#: How much of a port's track pitch scales with the access-transistor width.
#: Doubling a transistor does not double the wiring pitch; diffusion grows
#: but the track spacing is litho-limited.
PORT_WIDTH_SIZING_FRACTION: float = 0.4

#: The storage inverters occupy roughly the area of two ports (Section 4.2.1:
#: "the area of the two inverters in a bitcell is comparable to that of two
#: ports").
INVERTER_PORT_EQUIVALENT: float = 2.0

#: Width multiple of the bitcell access transistor (relative to a unit
#: device).  Register-file class cells use stronger access devices.
ACCESS_WIDTH: float = 2.0


@dataclasses.dataclass(frozen=True)
class Bitcell:
    """Geometry + electricals of an SRAM/CAM bitcell (or half-cell).

    Parameters
    ----------
    ports:
        Number of ports wired through this (half-)cell.
    has_storage:
        Whether the cross-coupled inverters live in this cell.  False for
        the top half of a port-partitioned cell.
    port_width_mult:
        Extra sizing applied to this cell's port transistors (2.0 for the
        up-sized top-layer ports of hetero-layer PP).
    layer_penalty:
        Drive penalty of the hosting layer (0.17 for the M3D top layer).
    cam:
        Whether the cell carries CAM match hardware.
    vias_per_cell:
        Number of inter-layer vias routed through the cell (2 for PP).
    via:
        The via technology, when ``vias_per_cell > 0``.
    """

    ports: float
    has_storage: bool = True
    port_width_mult: float = 1.0
    layer_penalty: float = 0.0
    cam: bool = False
    vias_per_cell: int = 0
    via: Optional[Via] = None

    def __post_init__(self) -> None:
        if self.ports < 0:
            raise ValueError("port count must be non-negative")
        if self.ports == 0 and not self.has_storage:
            raise ValueError("a cell must hold storage or at least one port")
        if self.vias_per_cell > 0 and self.via is None:
            raise ValueError("vias_per_cell > 0 requires a via technology")
        if self.port_width_mult < 1.0:
            raise ValueError("port width multiple must be >= 1")

    # -- geometry ----------------------------------------------------------

    @property
    def _port_track_equiv(self) -> float:
        """Track-pitch cost of one port, given its transistor sizing."""
        sizing = 1.0 + PORT_WIDTH_SIZING_FRACTION * (self.port_width_mult - 1.0)
        return self.ports * sizing

    @property
    def width(self) -> float:
        """Cell width (m): bitline-pair tracks plus the storage core."""
        tracks = self._port_track_equiv
        if self.has_storage:
            tracks += INVERTER_PORT_EQUIVALENT
        width = BASE_CELL_WIDTH + PORT_WIDTH_PITCH * max(0.0, tracks - 3.0)
        if not self.has_storage:
            # A storage-less (top PP) half-cell has no inverter core; it is
            # just port tracks over the via landing pads.
            width = max(PORT_WIDTH_PITCH * tracks, BASE_CELL_WIDTH * 0.5)
        if self.cam:
            width += CAM_EXTRA_WIDTH
        width += self.vias_per_cell * self._via_pitch
        return width

    @property
    def height(self) -> float:
        """Cell height (m): wordline tracks plus the storage core."""
        tracks = self._port_track_equiv
        if self.has_storage:
            height = BASE_CELL_HEIGHT + PORT_HEIGHT_PITCH * max(0.0, tracks - 1.0)
        else:
            height = max(PORT_HEIGHT_PITCH * tracks, BASE_CELL_HEIGHT * 0.5)
        if self.cam:
            height += CAM_EXTRA_HEIGHT
        # A via (plus KOZ) must also fit vertically within the cell row —
        # trivial for a 50nm MIV, but a 2.5um TSV footprint stretches the
        # whole row (part of Table 5's catastrophic TSV PP numbers).
        if self.vias_per_cell > 0:
            height = max(height, self._via_pitch)
        return height

    @property
    def _via_pitch(self) -> float:
        if self.via is None or self.vias_per_cell == 0:
            return 0.0
        # The via (plus KOZ) must fit in the cell; it adds its footprint side
        # to the cell width.  Negligible for MIVs, ruinous for TSVs.
        return self.via.footprint**0.5

    @property
    def area(self) -> float:
        """Cell area (m^2)."""
        return self.width * self.height

    # -- electricals -------------------------------------------------------

    def access_transistor(self) -> Transistor:
        """The read-access device of this cell (layer-aware, sized)."""
        return Transistor(
            width=ACCESS_WIDTH * self.port_width_mult,
            layer_penalty=self.layer_penalty,
        )

    @property
    def read_path_resistance(self) -> float:
        """Series resistance of the read path: access device + pull-down."""
        access = self.access_transistor()
        # Pull-down inverter device, similar sizing to the access transistor.
        return 2.0 * access.drive_resistance

    @property
    def match_path_resistance(self) -> float:
        """Pull-down resistance of the CAM match transistors (Ohm).

        Match pull-downs are sized ~2x the read access devices: the match
        line must resolve within the search phase, and the comparison stack
        does not sit under the same density pressure as the storage ports.
        """
        access = self.access_transistor()
        return access.drive_resistance

    @property
    def wordline_cap_per_cell(self) -> float:
        """Gate load one cell presents to its wordline (F).

        A differential port hangs two access-transistor gates on the
        wordline; up-sized ports load the wordline proportionally more —
        this is the "increases the capacitance on the wordlines slightly"
        cost of hetero-layer PP (Section 4.2.1).
        """
        access = self.access_transistor()
        return 2.0 * access.gate_capacitance

    @property
    def bitline_cap_per_cell(self) -> float:
        """Drain load one cell presents to its bitline (F)."""
        access = self.access_transistor()
        return access.drain_capacitance

    @property
    def leakage(self) -> float:
        """Cell leakage current (A): 6T core plus per-port devices."""
        unit = Transistor(width=1.0, vt=VtClass.HIGH, layer_penalty=self.layer_penalty)
        devices = 2.0 * self.ports * self.port_width_mult
        if self.has_storage:
            devices += 4.0
        if self.cam:
            devices += 4.0
        return unit.leakage_current * devices

    # -- construction helpers ----------------------------------------------

    def scaled(self, width_mult: float) -> "Bitcell":
        """Copy with up-sized port transistors (hetero top-layer cells)."""
        return dataclasses.replace(self, port_width_mult=width_mult)

    def on_layer(self, penalty: float) -> "Bitcell":
        """Copy placed on a layer with the given drive penalty."""
        return dataclasses.replace(self, layer_penalty=penalty)

    def with_vias(self, count: int, via: Via) -> "Bitcell":
        """Copy with ``count`` inter-layer vias threaded through each cell."""
        return dataclasses.replace(self, vias_per_cell=count, via=via)
