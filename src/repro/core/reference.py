"""Published numbers from the paper, kept verbatim for comparison.

Every table the benchmarks reproduce is mirrored here so the harness can
print model-vs-paper side by side and EXPERIMENTS.md can record residuals.
The partitioning tables (3-6 and 8) hold percentage *reductions* relative
to 2D (positive = better), exactly as printed in the paper.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class PaperRow(NamedTuple):
    """One structure's row in Table 6 or 8."""

    strategy: str
    latency: float
    energy: float
    footprint: float


#: Table 1: area overhead of one via against a 32-bit adder and against 32
#: SRAM cells (fractions: 0.08 means 8%).
TABLE1_VIA_OVERHEADS: Dict[str, Dict[str, float]] = {
    "MIV": {"adder32": 0.0001, "sram32": 0.001},
    "TSV(1.3um)": {"adder32": 0.080, "sram32": 2.717},
    "TSV(5um)": {"adder32": 1.287, "sram32": 43.478},
}

#: Table 2: via dimensions and electrical characteristics, as printed
#: (the integers stay integers).
TABLE2_VIAS: Dict[str, Dict[str, float]] = {
    "MIV": {"diameter_um": 0.05, "height_um": 0.31, "cap_fF": 0.1, "res_ohm": 5.5},
    "TSV(1.3um)": {"diameter_um": 1.3, "height_um": 13, "cap_fF": 2.5, "res_ohm": 0.1},
    "TSV(5um)": {"diameter_um": 5, "height_um": 25, "cap_fF": 37, "res_ohm": 0.02},
}

#: Figure 2: areas relative to an FO1 inverter at 15nm.
FIGURE2_RELATIVE_AREAS: Dict[str, float] = {
    "INV_FO1": 1.0, "MIV": 0.07, "SRAM_bitcell": 2.0, "TSV(1.3um)": 37.0,
}

#: Table 6, M3D columns: best iso-layer partition per structure.
TABLE6_M3D: Dict[str, PaperRow] = {
    "RF": PaperRow("PP", 41, 38, 56),
    "IQ": PaperRow("PP", 26, 35, 50),
    "SQ": PaperRow("PP", 14, 21, 44),
    "LQ": PaperRow("PP", 15, 36, 48),
    "RAT": PaperRow("PP", 20, 32, 45),
    "BPT": PaperRow("WP", 14, 36, 57),
    "BTB": PaperRow("BP", 15, 20, 37),
    "DTLB": PaperRow("BP", 26, 28, 35),
    "ITLB": PaperRow("BP", 20, 28, 36),
    "IL1": PaperRow("BP", 30, 36, 41),
    "DL1": PaperRow("BP", 41, 40, 44),
    "L2": PaperRow("BP", 32, 47, 53),
}

#: Table 6, TSV3D columns.
TABLE6_TSV: Dict[str, PaperRow] = {
    "RF": PaperRow("BP", 25, 19, 31),
    "IQ": PaperRow("BP", 17, 5, 32),
    "SQ": PaperRow("BP", -3, -18, 0),
    "LQ": PaperRow("BP", 2, 8, 10),
    "RAT": PaperRow("WP", 10, 5, -11),
    "BPT": PaperRow("BP", 4, -3, 4),
    "BTB": PaperRow("BP", -6, -10, -20),
    "DTLB": PaperRow("BP", 18, 20, 22),
    "ITLB": PaperRow("BP", 7, 11, 11),
    "IL1": PaperRow("BP", 14, 23, 25),
    "DL1": PaperRow("BP", 31, 33, 34),
    "L2": PaperRow("BP", 24, 42, 46),
}

#: Table 8: hetero-layer partition reductions (strategy per Section 4).
TABLE8_HETERO: Dict[str, PaperRow] = {
    "RF": PaperRow("PP", 40, 32, 47),
    "IQ": PaperRow("PP", 24, 30, 47),
    "SQ": PaperRow("PP", 13, 17, 43),
    "LQ": PaperRow("PP", 13, 30, 47),
    "RAT": PaperRow("PP", 20, 24, 44),
    "BPT": PaperRow("WP", 13, 30, 40),
    "BTB": PaperRow("BP", 13, 16, 26),
    "DTLB": PaperRow("BP", 23, 25, 25),
    "ITLB": PaperRow("BP", 18, 25, 28),
    "IL1": PaperRow("BP", 27, 33, 30),
    "DL1": PaperRow("BP", 37, 36, 31),
    "L2": PaperRow("BP", 29, 42, 42),
}

#: Table 3 (bit partitioning) and Table 4 (word partitioning) for the RF
#: and BPT example structures: {structure: {stack: PaperRow}}.
TABLE3_BP: Dict[str, Dict[str, PaperRow]] = {
    "RF": {
        "M3D": PaperRow("BP", 28, 22, 40),
        "TSV3D": PaperRow("BP", 25, 19, 31),
    },
    "BPT": {
        "M3D": PaperRow("BP", 14, 15, 37),
        "TSV3D": PaperRow("BP", 4, -3, 4),
    },
}

TABLE4_WP: Dict[str, Dict[str, PaperRow]] = {
    "RF": {
        "M3D": PaperRow("WP", 27, 35, 43),
        "TSV3D": PaperRow("WP", 24, 32, 39),
    },
    "BPT": {
        "M3D": PaperRow("WP", 14, 36, 57),
        "TSV3D": PaperRow("WP", -6, 9, 19),
    },
}

#: Table 5 (port partitioning) — RF only; PP is impossible for the BPT.
TABLE5_PP: Dict[str, Dict[str, PaperRow]] = {
    "RF": {
        "M3D": PaperRow("PP", 41, 38, 56),
        "TSV3D": PaperRow("PP", -361, -84, -498),
    },
}

#: Table 11: core frequencies (GHz).
TABLE11_FREQUENCIES: Dict[str, float] = {
    "Base": 3.30,
    "M3D-Iso": 3.83,
    "M3D-HetNaive": 3.50,
    "M3D-Het": 3.79,
    "M3D-HetAgg": 4.34,
    "TSV3D": 3.30,
    "M3D-Het-W": 3.30,
    "M3D-Het-2X": 3.30,
}

#: Figure 6 averages: single-core speedup over Base.
FIGURE6_AVG_SPEEDUP: Dict[str, float] = {
    "TSV3D": 1.10,
    "M3D-Iso": 1.28,
    "M3D-HetNaive": 1.17,
    "M3D-Het": 1.25,
    "M3D-HetAgg": 1.38,
}

#: Figure 7 averages: single-core energy normalised to Base.
FIGURE7_AVG_ENERGY: Dict[str, float] = {
    "TSV3D": 0.76,
    "M3D-Iso": 0.59,
    "M3D-HetNaive": 0.62,
    "M3D-Het": 0.61,
    "M3D-HetAgg": 0.59,
}

#: Figure 8: peak-temperature deltas over Base (degrees C, average).
FIGURE8_AVG_DELTA_T: Dict[str, float] = {
    "M3D-Het": 5.0,
    "TSV3D": 30.0,
}

#: Figure 9 averages: multicore speedup over a 4-core Base.
FIGURE9_AVG_SPEEDUP: Dict[str, float] = {
    "TSV3D": 1.11,
    "M3D-Het": 1.26,
    "M3D-Het-W": 1.25,
    "M3D-Het-2X": 1.92,
}

#: Figure 10 averages: multicore energy normalised to a 4-core Base.
FIGURE10_AVG_ENERGY: Dict[str, float] = {
    "TSV3D": 0.83,
    "M3D-Het": 0.67,
    "M3D-Het-W": 0.74,
    "M3D-Het-2X": 0.61,
}

#: Section 3.1 / 4.1.1 logic-stage facts.
LOGIC_STUDY = {
    "adder_freq_gain": 0.15,
    "four_alu_freq_gain": 0.28,
    "four_alu_energy_reduction": 0.10,
    "footprint_reduction": 0.41,
    "critical_gate_fraction": 0.015,
    "critical_gate_fraction_20pct_slack": 0.38,
}

#: Section 7.1.2: LP-process top layer saves a further ~9 percentage points.
LP_TOP_EXTRA_ENERGY_POINTS: float = 9.0

#: Section 7.1.3 thermal facts.
THERMAL_STUDY = {
    "base_core_power_w": 6.4,
    "m3d_avg_delta_c": 5.0,
    "m3d_max_delta_c": 10.0,
    "tsv_avg_delta_c": 30.0,
    "tjmax_c": 100.0,
}
