"""Inter-layer via models: Monolithic Inter-layer Vias (MIVs) and TSVs.

Reproduces the geometry/electrical data of Table 2, the area-overhead
comparison of Table 1 and the relative-area chart of Figure 2.

An MIV is a ~50nm square with no keep-out zone; a TSV is a multi-micron
cylinder that additionally sterilises a Keep-Out Zone (KOZ) ring around
itself.  That three-orders-of-magnitude area gap is what makes fine-grained
(intra-block, per-cell) partitioning feasible in M3D and catastrophic in
TSV3D (Table 5's -498% port-partitioned register-file footprint).
"""

from __future__ import annotations

import dataclasses
import math

from repro.tech import constants


@dataclasses.dataclass(frozen=True)
class Via:
    """A vertical interconnect between two device layers.

    Attributes
    ----------
    name:
        Human-readable identifier used in reports ("MIV", "TSV(1.3um)", ...).
    diameter:
        Side (square MIV) or diameter (cylindrical TSV) in metres.
    height:
        Vertical span in metres.
    capacitance:
        Total via capacitance in farads.
    resistance:
        End-to-end resistance in ohms.
    koz_ring:
        Width of the keep-out ring that must be left empty around the via
        (metres); zero for MIVs.
    square:
        Whether the via footprint is a square (MIV) or a circle-inscribing
        square is used for layout (TSV occupies its bounding box plus KOZ).
    """

    name: str
    diameter: float
    height: float
    capacitance: float
    resistance: float
    koz_ring: float = 0.0
    square: bool = True

    def __post_init__(self) -> None:
        if self.diameter <= 0 or self.height <= 0:
            raise ValueError(f"{self.name}: via dimensions must be positive")
        if self.capacitance < 0 or self.resistance < 0:
            raise ValueError(f"{self.name}: electrical parameters must be >= 0")

    @property
    def body_area(self) -> float:
        """Area of the via body alone (m^2), excluding the KOZ.

        MIVs are squares (their side equals the lowest metal pitch);
        TSVs are cylinders, so their body is a circle.
        """
        if self.square:
            return self.diameter**2
        return math.pi / 4.0 * self.diameter**2

    @property
    def footprint(self) -> float:
        """Layout area consumed by the via including its KOZ (m^2).

        The KOZ is modelled as a ring of width ``koz_ring`` around the via's
        bounding box, matching the paper's ~6.25 um^2 for a 1.3 um TSV.
        """
        side = self.diameter + 2.0 * self.koz_ring
        return side**2

    @property
    def rc_delay(self) -> float:
        """Intrinsic RC product of the via itself (s).

        Section 2.1.2 observes that the overall RC delay of MIV and TSV wires
        is roughly similar (the MIV trades capacitance for resistance), but
        the *gate delay to drive* the via — dominated by C — is far smaller
        for the MIV.
        """
        return self.resistance * self.capacitance

    def drive_delay(self, driver_resistance: float) -> float:
        """Delay of a driver of the given resistance charging this via (s)."""
        if driver_resistance <= 0:
            raise ValueError("driver resistance must be positive")
        return 0.69 * (driver_resistance + self.resistance) * self.capacitance

    def area_overhead_vs(self, reference_area: float) -> float:
        """Fractional area overhead of one via against a reference.

        This is the quantity tabulated in Table 1 (e.g. a single 1.3 um TSV
        with KOZ is 8.0% of a 32-bit adder).
        """
        if reference_area <= 0:
            raise ValueError("reference area must be positive")
        return self.footprint / reference_area


def make_miv() -> Via:
    """The 50nm MIV of Table 2 (CEA-LETI, 15nm node)."""
    return Via(
        name="MIV",
        diameter=constants.MIV_SIDE,
        height=constants.MIV_HEIGHT,
        capacitance=constants.MIV_CAPACITANCE,
        resistance=constants.MIV_RESISTANCE,
        koz_ring=0.0,
        square=True,
    )


def make_tsv_aggressive() -> Via:
    """The aggressive 1.3um TSV (half the ITRS 2020 projection)."""
    return Via(
        name="TSV(1.3um)",
        diameter=constants.TSV_AGGRESSIVE_DIAMETER,
        height=constants.TSV_AGGRESSIVE_HEIGHT,
        capacitance=constants.TSV_AGGRESSIVE_CAPACITANCE,
        resistance=constants.TSV_AGGRESSIVE_RESISTANCE,
        koz_ring=constants.TSV_KOZ_RING_FRACTION * constants.TSV_AGGRESSIVE_DIAMETER,
        square=False,
    )


def make_tsv_research() -> Via:
    """The 5um research TSV of Van Huylenbroeck et al. [20]."""
    return Via(
        name="TSV(5um)",
        diameter=constants.TSV_RESEARCH_DIAMETER,
        height=constants.TSV_RESEARCH_HEIGHT,
        capacitance=constants.TSV_RESEARCH_CAPACITANCE,
        resistance=constants.TSV_RESEARCH_RESISTANCE,
        koz_ring=constants.TSV_KOZ_RING_FRACTION * constants.TSV_RESEARCH_DIAMETER,
        square=False,
    )


def table1_area_overheads() -> dict:
    """Reproduce Table 1: via area overhead vs a 32b adder and 32 SRAM cells.

    Returns a nested dict ``{via_name: {"adder32": frac, "sram32": frac}}``
    where fractions are relative overheads (0.08 means 8%).
    """
    adder_area = constants.ADDER32_AREA_UM2 * 1e-12
    sram_area = constants.SRAM32_AREA_UM2 * 1e-12
    overheads = {}
    for via in (make_miv(), make_tsv_aggressive(), make_tsv_research()):
        overheads[via.name] = {
            "adder32": via.area_overhead_vs(adder_area),
            "sram32": via.area_overhead_vs(sram_area),
        }
    return overheads


def figure2_relative_areas() -> dict:
    """Reproduce Figure 2: areas relative to an FO1 inverter at 15nm.

    The paper's bar chart reports: inverter 1x, MIV 0.07x, SRAM bitcell 2x,
    TSV(1.3um) 37x.  (The TSV bar excludes the KOZ; Table 1 includes it.)
    """
    inv_area = constants.INVERTER_FO1_AREA_UM2 * 1e-12
    miv = make_miv()
    tsv = make_tsv_aggressive()
    bitcell_area = 2.0 * inv_area  # Figure 2: bitcell = 2x inverter
    return {
        "INV_FO1": 1.0,
        "MIV": miv.body_area / inv_area,
        "SRAM_bitcell": bitcell_area / inv_area,
        "TSV(1.3um)": tsv.body_area / inv_area,
    }
