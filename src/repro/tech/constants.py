"""Physical and roadmap constants used across the technology models.

The paper works primarily at the 22nm node (CACTI modelling of SRAM arrays,
"to be conservative") and quotes via geometry at the 15nm node (Table 1,
Table 2, Figure 2).  The constants collected here come straight from the
paper's citations: ITRS 2.0 [22], the Intel 14nm platform paper [24], the
CEA-LETI M3D publications [5, 7, 14], and the TSV characterisation work
[15, 20].

All values are in SI units unless the name says otherwise.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Thermal limit
# ---------------------------------------------------------------------------

#: Maximum safe transistor junction temperature (C), "Tjmax ~= 100C" (Sec 7.1.3).
T_JMAX_C: float = 100.0

# ---------------------------------------------------------------------------
# Roadmap voltages and nodes
# ---------------------------------------------------------------------------

#: Nominal supply voltage at 22nm, per ITRS (Section 6: "We set the nominal
#: voltage at 22nm to 0.8V following ITRS").
VDD_NOMINAL_22NM: float = 0.8

#: Reduced supply voltage used by the M3D-Het-2X multicore (Section 6.1:
#: "the maximum reduction is 50mV, which sets the voltage to 0.75V").
VDD_HET2X: float = 0.75

#: Feature size of the 22nm node (m).
FEATURE_22NM: float = 22e-9

# ---------------------------------------------------------------------------
# Via geometry (Table 2) — MIV and the two TSV designs
# ---------------------------------------------------------------------------

#: MIV side at the 15nm node (m); MIVs are modelled as squares ("because an
#: MIV is so small, it is assumed to be a square").
MIV_SIDE: float = 50e-9

#: MIV via height (m) — spans the thin ILD plus the top active layer.
MIV_HEIGHT: float = 310e-9

#: MIV capacitance (F) and resistance (Ohm), Table 2.
MIV_CAPACITANCE: float = 0.1e-15
MIV_RESISTANCE: float = 5.5

#: Aggressive TSV: half the ITRS-projected 2.6um diameter (Section 2.1.1).
TSV_AGGRESSIVE_DIAMETER: float = 1.3e-6
TSV_AGGRESSIVE_HEIGHT: float = 13e-6
TSV_AGGRESSIVE_CAPACITANCE: float = 2.5e-15
TSV_AGGRESSIVE_RESISTANCE: float = 100e-3

#: Most recent research TSV [20], Table 2.
TSV_RESEARCH_DIAMETER: float = 5e-6
TSV_RESEARCH_HEIGHT: float = 25e-6
TSV_RESEARCH_CAPACITANCE: float = 37e-15
TSV_RESEARCH_RESISTANCE: float = 20e-3

#: Keep-Out-Zone ring width around a TSV, as a fraction of its diameter.
#: With a 1.3um TSV the paper's Table 1 charges ~6.25um^2 for via+KOZ
#: (Section 2.3.1), i.e. a ~2.5um square footprint: a ring of ~0.46x the
#: diameter.  The same fraction puts the 5um TSV near the ~100um^2 that
#: Table 1's 128.7%-of-an-adder implies.  MIVs need no KOZ.
TSV_KOZ_RING_FRACTION: float = 0.46

# ---------------------------------------------------------------------------
# Reference component areas (Table 1, Figure 2) at 15nm
# ---------------------------------------------------------------------------

#: Area of a 32-bit adder at 15nm (um^2), from Intel/Nikonov [24, 34].
ADDER32_AREA_UM2: float = 77.7

#: Area of a 32-bit SRAM word, i.e. 32 bitcells (um^2) [24].
SRAM32_AREA_UM2: float = 2.3

#: FO1 inverter area at 15nm (um^2).  Figure 2 gives the relative areas:
#: MIV = 0.07x inverter and the MIV is a 50nm square (0.0025um^2), hence the
#: inverter is ~0.0357um^2; an SRAM bitcell is then ~2x the inverter.
INVERTER_FO1_AREA_UM2: float = (MIV_SIDE * 1e6) ** 2 / 0.07

# ---------------------------------------------------------------------------
# Hetero-layer performance degradation (Section 2.4.2, Section 4)
# ---------------------------------------------------------------------------

#: Inverter delay degradation of the top M3D layer, Shi et al. [45]: 17%.
TOP_LAYER_DELAY_PENALTY: float = 0.17

#: Frequency loss observed by Shi et al. for a gate-level partitioned AES block.
NAIVE_FREQ_LOSS_AES: float = 0.09

# ---------------------------------------------------------------------------
# Wire technology (local metal at 22nm, ITRS-flavoured)
# ---------------------------------------------------------------------------

#: Resistance per unit length of a minimum-pitch local copper wire (Ohm/m).
WIRE_RES_PER_M: float = 8.0e6

#: Capacitance per unit length of a local wire (F/m).
WIRE_CAP_PER_M: float = 0.25e-9

#: Tungsten resistivity penalty relative to copper (Section 2.4.2: "tungsten
#: has 3x higher resistance than copper").
TUNGSTEN_RESISTANCE_FACTOR: float = 3.0

#: Footprint reduction of a folded two-layer block (Section 3.1: the adder
#: layout shows 41%; the theoretical maximum is 50%).
FOOTPRINT_REDUCTION_LOGIC: float = 0.41

# ---------------------------------------------------------------------------
# Clock tree (Section 6: "For the clock tree, we reduce the switching power
# by a constant factor of 25%").
# ---------------------------------------------------------------------------

CLOCK_TREE_POWER_REDUCTION_3D: float = 0.25
