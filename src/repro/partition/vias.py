"""Via-budget accounting and physical feasibility checks.

Partitioning is only as fine-grained as the via technology allows.  This
module answers two questions the strategies rely on:

* how many vias does a strategy need for a given structure (Section 3.2:
  one per word for BP, one per bit column for WP, two per cell for PP)?
* do those vias physically fit — i.e. is the via (plus KOZ) pitch smaller
  than the pitch of the cell or row it must land in?

The answers reproduce the paper's headline qualitative result: MIVs make
every strategy feasible, TSVs rule out port partitioning entirely and make
per-word vias painful for cell-sized rows (Section 2.3.1's comparison of a
~0.05 um^2 bitcell with a ~6.25 um^2 TSV+KOZ).
"""

from __future__ import annotations

import dataclasses
import math

from repro.sram.array import ArrayGeometry
from repro.sram.bitcell import Bitcell
from repro.tech.via import Via


@dataclasses.dataclass(frozen=True)
class ViaBudget:
    """Via requirements of one strategy applied to one structure."""

    structure: str
    strategy: str
    count: int
    area: float
    fits: bool


def via_count(geometry: ArrayGeometry, strategy: str) -> int:
    """Number of inter-layer vias a strategy needs for one bank.

    BP needs one via per word (the split wordline) plus one per top-layer
    output bit; WP needs one per bit column (the split bitline); PP needs
    two per cell (Figure 3(c)).
    """
    family = strategy.replace("Asym", "")
    if family == "BP":
        return geometry.words + geometry.bits // 2
    if family == "WP":
        return geometry.bits
    if family == "PP":
        return 2 * geometry.words * geometry.bits
    raise ValueError(f"unknown strategy {strategy!r}")


def fits_in_cell(via: Via, cell: Bitcell, vias_per_cell: int = 2) -> bool:
    """Whether ``vias_per_cell`` vias fit inside one cell footprint.

    This is the PP feasibility test: an MIV easily fits inside a large
    multiported cell; a TSV (with KOZ) is dozens of times the cell's area.
    """
    return vias_per_cell * via.footprint <= cell.area


def fits_in_row(via: Via, cell: Bitcell, bits: int) -> bool:
    """Whether one via per word fits at the end of a row (BP feasibility)."""
    row_area = bits * cell.area
    return via.footprint <= 0.25 * row_area


def budget(geometry: ArrayGeometry, strategy: str, via: Via) -> ViaBudget:
    """Full via budget of a strategy, including a physical-fit verdict."""
    count = via_count(geometry, strategy) * geometry.banks
    area = count * via.footprint
    family = strategy.replace("Asym", "")
    cell = geometry.cell()
    if family == "PP":
        fits = geometry.ports >= 2 and fits_in_cell(via, cell)
    elif family == "BP":
        fits = fits_in_row(via, cell, geometry.bits)
    else:  # WP: vias land in the sense-amp strip, one per column.
        fits = via.footprint**0.5 <= 4.0 * cell.width
    return ViaBudget(
        structure=geometry.name,
        strategy=strategy,
        count=count,
        area=area,
        fits=fits,
    )


def miv_density_per_mm2(via: Via) -> float:
    """Upper bound on via density (vias per mm^2) for a via technology."""
    return 1e-6 / via.footprint * 1e6 if via.footprint > 0 else math.inf
