"""The named core / multicore configurations of Table 11.

A :class:`CoreConfig` bundles everything the microarchitectural simulator,
power model and thermal model need about one design point: Table 9's
structure sizes, the derived frequency, the 3D critical-path cycle savings
(load-to-use and branch misprediction, Section 6), voltage, issue width and
core count.

Every named constructor below is a thin shim over the design-point
registry (:mod:`repro.design`): the paper's configurations are registered
:class:`~repro.design.point.DesignPoint` specs, and
:func:`repro.design.resolve.resolve` drives partitioning, frequency
derivation and config construction from the spec alone.  Frequencies are
derived from the partition model by default; pass ``use_paper_values=True``
to pin them to the paper's published Table 11 numbers instead.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.tech import constants


@dataclasses.dataclass(frozen=True)
class CoreConfig:
    """One evaluated design point (a row of Table 11)."""

    name: str
    frequency: float  # Hz
    vdd: float = constants.VDD_NOMINAL_22NM
    num_cores: int = 1

    # Pipeline widths (Table 9).
    dispatch_width: int = 4
    issue_width: int = 6
    commit_width: int = 4

    # Window/queue sizes (Table 9).
    rob_entries: int = 192
    iq_entries: int = 84
    lq_entries: int = 72
    sq_entries: int = 56
    rf_entries: int = 160

    # Cache round-trip latencies in core cycles (Table 9).
    il1_cycles: int = 3
    dl1_cycles: int = 4
    l2_cycles: int = 10
    l3_cycles: int = 32
    dram_ns: float = 50.0

    # Critical-path cycle counts (Section 6): 2D needs 4 cycles load-to-use
    # and a 14-cycle branch misprediction loop; every 3D design saves 1 and
    # 2 cycles respectively.
    load_to_use_cycles: int = 4
    branch_mispredict_cycles: int = 14

    # Organisation flags.
    is_3d: bool = False
    hetero: bool = False
    shared_l2: bool = False  # pairs of cores share L2s + router (Figure 4)
    stack: str = "2D"

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.issue_width < self.dispatch_width:
            raise ValueError("issue width below dispatch width is not modelled")

    @property
    def ghz(self) -> float:
        return self.frequency / 1e9

    @property
    def dram_cycles(self) -> int:
        """DRAM round-trip in core cycles — grows with core frequency."""
        return max(1, round(self.dram_ns * 1e-9 * self.frequency))


def _resolved(name: str, num_cores: int,
              use_paper_values: bool = False) -> CoreConfig:
    # Imported lazily: repro.design builds CoreConfig instances, so a
    # module-level import here would be circular.
    from repro.design.resolve import resolve

    return resolve(
        name, num_cores=num_cores, use_paper_values=use_paper_values
    ).config


def base_config(num_cores: int = 1) -> CoreConfig:
    """The 2D baseline: 3.3 GHz, Table 9 parameters."""
    return _resolved("Base", num_cores)


def tsv3d_config(num_cores: int = 1) -> CoreConfig:
    """TSV3D: base frequency, but 3D path savings and (multicore) shared L2s."""
    return _resolved("TSV3D", num_cores)


def m3d_iso_config(use_paper_values: bool = False, num_cores: int = 1) -> CoreConfig:
    """M3D-Iso: same-performance layers (paper: 3.83 GHz)."""
    return _resolved("M3D-Iso", num_cores, use_paper_values)


def m3d_het_naive_config(use_paper_values: bool = False,
                         num_cores: int = 1) -> CoreConfig:
    """M3D-HetNaive: iso design slowed 9% by the slow top layer (3.5 GHz)."""
    return _resolved("M3D-HetNaive", num_cores, use_paper_values)


def m3d_het_config(use_paper_values: bool = False, num_cores: int = 1) -> CoreConfig:
    """M3D-Het: our asymmetric hetero partitioning (paper: 3.79 GHz)."""
    return _resolved("M3D-Het", num_cores, use_paper_values)


def m3d_het_agg_config(use_paper_values: bool = False,
                       num_cores: int = 1) -> CoreConfig:
    """M3D-HetAgg: frequency limited only by the IQ (paper: 4.34 GHz)."""
    return _resolved("M3D-HetAgg", num_cores, use_paper_values)


def m3d_het_wide_config(num_cores: int = 4) -> CoreConfig:
    """M3D-Het-W: base frequency, issue width raised to 8 (Table 11)."""
    return _resolved("M3D-Het-W", num_cores)


def m3d_het_2x_config(num_cores: int = 8) -> CoreConfig:
    """M3D-Het-2X: base frequency, 0.75 V, twice the cores (Table 11)."""
    return _resolved("M3D-Het-2X", num_cores)


def single_core_configs(use_paper_values: bool = False) -> List[CoreConfig]:
    """The six single-core designs of Figures 6-8, in figure order."""
    from repro.design.resolve import paper_single_core_configs

    return paper_single_core_configs(use_paper_values)


def multicore_configs(use_paper_values: bool = False) -> List[CoreConfig]:
    """The five multicore designs of Figures 9-10, in figure order."""
    from repro.design.resolve import paper_multicore_configs

    return paper_multicore_configs(use_paper_values)


def configs_by_name(use_paper_values: bool = False) -> Dict[str, CoreConfig]:
    """All single-core configs keyed by name."""
    return {cfg.name: cfg for cfg in single_core_configs(use_paper_values)}
