"""The core configuration record of Table 11.

A :class:`CoreConfig` bundles everything the microarchitectural simulator,
power model and thermal model need about one design point: Table 9's
structure sizes, the derived frequency, the 3D critical-path cycle savings
(load-to-use and branch misprediction, Section 6), voltage, issue width and
core count.

The paper's designs are registered
:class:`~repro.design.point.DesignPoint` specs, and the registry is the
one way to name one: ``resolve("M3D-Het").config`` drives partitioning,
frequency derivation and config construction from the spec alone
(:mod:`repro.design.resolve`).  Frequencies are derived from the
partition model by default; ``resolve(name, use_paper_values=True)``
pins them to the paper's published reductions instead.
"""

from __future__ import annotations

import dataclasses
from typing import List

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


def single_core_configs() -> List[CoreConfig]:
    """The six single-core designs of Figures 6-8, in figure order.

    Kept only for ``perfbench/tests/test_perfbench.py``, which imports
    it; everything else calls
    :func:`repro.design.resolve.paper_single_core_configs`.
    """
    # Imported lazily: repro.design builds CoreConfig instances, so a
    # module-level import here would be circular.
    from repro.design.resolve import paper_single_core_configs

    return paper_single_core_configs()
