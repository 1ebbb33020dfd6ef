"""Core floorplan and per-block power maps.

The paper bases its floorplan on AMD Ryzen [3] and conservatively assumes
a 50% footprint reduction for the 3D designs when computing peak
temperatures (Section 7.1.3).  Blocks here follow a Zen-like core layout;
per-application power weights shift with the workload (FP-heavy apps heat
the FPU, window-bound apps heat the IQ — "the hottest point ... is in the
IQ for DealII, whereas it is in the FPU for Gems").

Port-partitioned hot structures (IQ, RAT, RF) carry *larger* energy
reductions than the core average (Section 7.1.3: IQ power falls 34% vs
24% for the whole core), which is part of why M3D stays cool despite the
doubled power density.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.profiles import AppProfile

#: 2D core footprint at 22nm (m^2): a Zen-like core+L2 region, ~5 mm^2.
CORE_AREA_2D: float = 5e-6

#: Per-block area fractions of the 2D core.
BLOCK_AREAS: Dict[str, float] = {
    "fetch_bp": 0.12,
    "decode": 0.09,
    "rename_rat": 0.05,
    "iq": 0.08,
    "rf": 0.07,
    "int_ex": 0.13,
    "fpu": 0.18,
    "lsu": 0.09,
    "dl1": 0.10,
    "l2": 0.09,
}

#: Baseline per-block power fractions (integer-heavy workload).
BLOCK_POWER_INT: Dict[str, float] = {
    "fetch_bp": 0.10,
    "decode": 0.09,
    "rename_rat": 0.08,
    "iq": 0.15,
    "rf": 0.13,
    "int_ex": 0.20,
    "fpu": 0.04,
    "lsu": 0.10,
    "dl1": 0.08,
    "l2": 0.03,
}

#: Per-block power fractions for FP-heavy workloads (FPU takes the lead).
BLOCK_POWER_FP: Dict[str, float] = {
    "fetch_bp": 0.08,
    "decode": 0.07,
    "rename_rat": 0.07,
    "iq": 0.14,
    "rf": 0.12,
    "int_ex": 0.10,
    "fpu": 0.22,
    "lsu": 0.09,
    "dl1": 0.08,
    "l2": 0.03,
}

#: Extra dynamic-power reduction of port-partitioned hot blocks in M3D
#: beyond the core-average savings (Section 7.1.3).
PP_HOT_BLOCK_EXTRA_SAVING: Dict[str, float] = {
    "iq": 0.13,
    "rename_rat": 0.10,
    "rf": 0.10,
}


@dataclasses.dataclass(frozen=True)
class Block:
    """One floorplan block with its power (W) and footprint share."""

    name: str
    area_fraction: float
    power: float

    def __post_init__(self) -> None:
        if not 0 < self.area_fraction <= 1:
            raise ValueError(f"{self.name}: bad area fraction")
        if self.power < 0:
            raise ValueError(f"{self.name}: negative power")


@dataclasses.dataclass(frozen=True)
class Floorplan:
    """A core floorplan: blocks plus the footprint they tile."""

    name: str
    area: float
    blocks: List[Block]

    @property
    def total_power(self) -> float:
        return sum(block.power for block in self.blocks)

    def power_density_map(self, grid: int) -> List[List[float]]:
        """A ``grid x grid`` map of power density (W/m^2).

        Blocks tile the square footprint row-major in proportion to their
        area fractions — a simplification of the Ryzen layout that keeps
        hot blocks spatially distinct.
        """
        cells = grid * grid
        cell_area = self.area / cells
        densities: List[float] = []
        for block in self.blocks:
            block_cells = max(1, round(block.area_fraction * cells))
            cell_power = block.power / block_cells
            densities.extend([cell_power / cell_area] * block_cells)
        densities = (densities + [0.0] * cells)[:cells]
        return [densities[r * grid : (r + 1) * grid] for r in range(grid)]


def _power_weights(profile: Optional[AppProfile]) -> Dict[str, float]:
    """Blend INT/FP block-power weights by the application's FP share."""
    if profile is None:
        return BLOCK_POWER_INT
    blend = min(1.0, profile.fp_frac / 0.30)
    return {
        name: (1 - blend) * BLOCK_POWER_INT[name] + blend * BLOCK_POWER_FP[name]
        for name in BLOCK_POWER_INT
    }


def floorplan_2d(core_power: float,
                 profile: Optional[AppProfile] = None) -> Floorplan:
    """The 2D baseline floorplan at the given total core power."""
    weights = _power_weights(profile)
    blocks = [
        Block(name, BLOCK_AREAS[name], core_power * weights[name])
        for name in BLOCK_AREAS
    ]
    return Floorplan("2D", CORE_AREA_2D, blocks)


def floorplan_folded(
    core_power: float,
    profile: Optional[AppProfile] = None,
    *,
    footprint_reduction: float = 0.5,
    bottom_share: float = 0.55,
    hot_block_extra_saving: bool = True,
) -> List[Floorplan]:
    """The two per-layer floorplans of a folded (3D) core.

    Returns ``[bottom, top]``.  Each block splits across the layers
    (``bottom_share`` of its power below); the footprint shrinks by the
    conservative 50% of Section 7.1.3; PP-partitioned hot blocks shed
    extra power when ``hot_block_extra_saving`` is set (M3D, not TSV3D).
    """
    if not 0.0 < bottom_share < 1.0:
        raise ValueError("bottom share must be in (0, 1)")
    weights = _power_weights(profile)
    area = CORE_AREA_2D * (1.0 - footprint_reduction)
    layers: List[Floorplan] = []
    for layer, share in (("bottom", bottom_share), ("top", 1.0 - bottom_share)):
        blocks = []
        for name in BLOCK_AREAS:
            power = core_power * weights[name] * share
            if hot_block_extra_saving and name in PP_HOT_BLOCK_EXTRA_SAVING:
                power *= 1.0 - PP_HOT_BLOCK_EXTRA_SAVING[name]
            blocks.append(Block(name, BLOCK_AREAS[name], power))
        layers.append(Floorplan(f"folded_{layer}", area, blocks))
    return layers


def floorplan_manycore(
    tile_plans: Sequence[Sequence[Floorplan]],
    num_layers: int,
    name: str = "manycore",
) -> Tuple[List[Floorplan], List[List[Tuple[int, int]]]]:
    """Tile per-core floorplans onto chip-level per-layer floorplans.

    ``tile_plans`` holds one per-layer floorplan list per tile (row-major
    mesh order): length 1 for an unfolded (2D) tile, 2 for a folded one.
    Every tile occupies one uniform *slot* of the chip footprint (the
    largest tile's area); a tile smaller than its slot — or absent from
    a layer entirely, like a 2D tile on a folded chip's top layer — is
    padded with a zero-power filler block so the spatial layout stays
    honest.

    Returns ``(chip_plans, block_ranges)``: one chip :class:`Floorplan`
    per active layer, and ``block_ranges[layer][tile] = (start, end)``
    block indices into that plan — feed them to :func:`tile_cell_spans`
    to recover each tile's grid cells for per-tile peak temperatures.
    """
    if not tile_plans:
        raise ValueError("manycore floorplan needs at least one tile")
    for plans in tile_plans:
        if not 1 <= len(plans) <= num_layers:
            raise ValueError(
                f"each tile needs 1..{num_layers} per-layer floorplans, "
                f"got {len(plans)}"
            )
    slot_area = max(plan.area for plans in tile_plans for plan in plans)
    chip_area = slot_area * len(tile_plans)
    chip_plans: List[Floorplan] = []
    block_ranges: List[List[Tuple[int, int]]] = []
    for layer in range(num_layers):
        blocks: List[Block] = []
        ranges: List[Tuple[int, int]] = []
        for index, plans in enumerate(tile_plans):
            start = len(blocks)
            if layer < len(plans):
                plan = plans[layer]
                scale = plan.area / chip_area
                for block in plan.blocks:
                    blocks.append(Block(
                        f"t{index}.{block.name}",
                        block.area_fraction * scale,
                        block.power,
                    ))
                pad = (slot_area - plan.area) / chip_area
            else:
                pad = slot_area / chip_area
            if pad > 1e-12:
                blocks.append(Block(f"t{index}.pad", pad, 0.0))
            ranges.append((start, len(blocks)))
        chip_plans.append(Floorplan(f"{name}_layer{layer}", chip_area, blocks))
        block_ranges.append(ranges)
    return chip_plans, block_ranges


def tile_cell_spans(
    plan: Floorplan,
    grid: int,
    ranges: Sequence[Tuple[int, int]],
) -> List[Tuple[int, int]]:
    """Flat grid-cell spans of each tile's block range on one chip plan.

    Replicates :meth:`Floorplan.power_density_map`'s allocation (each
    block takes ``max(1, round(fraction * cells))`` cells, row-major,
    truncated at the grid) so per-tile temperature readouts index the
    exact cells the solver heated.
    """
    cells = grid * grid
    positions: List[int] = []
    pos = 0
    for block in plan.blocks:
        positions.append(pos)
        pos += max(1, round(block.area_fraction * cells))
    positions.append(pos)
    return [
        (min(positions[start], cells), min(positions[end], cells))
        for start, end in ranges
    ]
