"""Steady-state 3D thermal grid solver (the HotSpot substitute).

The chip is discretised into a ``grid x grid`` mesh per stack layer.
Vertical conductances follow the Table 10 slab resistances; lateral
conduction acts within each slab (significant only in the thick silicon
and the spreader); the top of the stack connects to ambient through the
lumped sink resistance.  The sparse linear system ``G T = P`` is solved
directly with SciPy — the "more accurate grid-model" the paper uses in
HotSpot, in miniature.

Fast path: the conductance matrix depends only on the stack, the mesh and
the chip area — *not* on the power maps.  It is assembled with vectorized
COO construction, factorized once with ``splu`` and the factorization is
reused for every subsequent right-hand side (HotSpot's grid solver
amortises its matrix factorisation across power maps the same way), so a
21-application Figure 8 sweep pays for one factorization per stack.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from repro.lru import LruMemo
from repro.thermal.floorplan import Floorplan
from repro.thermal.stack import ThermalStack


@dataclasses.dataclass(frozen=True)
class ThermalSolution:
    """Temperatures of every grid cell in every layer (deg C)."""

    stack_name: str
    grid: int
    temperatures: np.ndarray  # shape (num_layers, grid, grid)
    ambient_c: float

    @property
    def peak_c(self) -> float:
        return float(self.temperatures.max())

    @property
    def peak_delta_c(self) -> float:
        return self.peak_c - self.ambient_c

    def layer_peak(self, layer: int) -> float:
        return float(self.temperatures[layer].max())


class _FactorizedStack:
    """LU factorization of one (stack, chip_area, grid) conductance system,
    plus the power-independent pieces of the right-hand side."""

    def __init__(self, stack: ThermalStack, chip_area: float,
                 grid: int) -> None:
        layers = stack.layers
        nl = len(layers)
        cells = grid * grid
        n = nl * cells
        side = chip_area**0.5
        cell_w = side / grid
        cell_area = cell_w * cell_w

        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        data: List[np.ndarray] = []

        def stamp_pairs(a: np.ndarray, b: np.ndarray, g: float) -> None:
            """Add conductance g between every (a[i], b[i]) node pair."""
            ones = np.full(a.shape, g)
            rows.extend((a, b, a, b))
            cols.extend((a, b, b, a))
            data.extend((ones, ones, -ones, -ones))

        cell_ids = np.arange(cells)

        # Vertical conductances between adjacent layers (series half-slabs).
        for li in range(nl - 1):
            r_half = (
                layers[li].vertical_resistance_per_area / 2.0
                + layers[li + 1].vertical_resistance_per_area / 2.0
            )
            g = cell_area / r_half
            a = li * cells + cell_ids
            stamp_pairs(a, a + cells, g)

        # Lateral conduction within each slab: G = k * t * (span/len) = k * t.
        col_of = cell_ids % grid
        row_of = cell_ids // grid
        east = cell_ids[col_of < grid - 1]
        south = cell_ids[row_of < grid - 1]
        for li, layer in enumerate(layers):
            g_lat = layer.conductivity * layer.thickness
            if g_lat <= 0:
                continue
            base = li * cells
            stamp_pairs(base + east, base + east + 1, g_lat)
            stamp_pairs(base + south, base + south + grid, g_lat)

        # Sink: top layer to ambient.  Each cell sees the lumped chip-level
        # sink resistance (spread across cells) in series with a *local*
        # spreading resistance proportional to its area — the term that
        # makes power density matter (HotSpot's spreader, in miniature).
        r_cell = (
            stack.sink_resistance * cells
            + stack.spreading_resistance_area / cell_area
        )
        g_sink = 1.0 / r_cell
        top_nodes = (nl - 1) * cells + cell_ids
        rows.append(top_nodes)
        cols.append(top_nodes)
        data.append(np.full(cells, g_sink))

        matrix = coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        ).tocsc()

        self.num_layers = nl
        self.grid = grid
        self.cells = cells
        self.cell_area = cell_area
        self.lu = splu(matrix)
        self.sink_rhs = np.zeros(n)
        self.sink_rhs[top_nodes] = g_sink * stack.ambient_c

    def solve(self, power_maps: List[Optional[List[List[float]]]]) -> np.ndarray:
        """One RHS solve against the cached factorization."""
        rhs = self.sink_rhs.copy()
        cells = self.cells
        for li, power_map in enumerate(power_maps):
            if power_map is None:
                continue
            rhs[li * cells : (li + 1) * cells] += (
                np.asarray(power_map, dtype=float).reshape(cells)
                * self.cell_area
            )
        return self.lu.solve(rhs)


#: LRU of factorized systems; a sweep touches a handful of (stack, grid,
#: area) combinations, each factorization is ~1e3 nodes — cheap to keep.
_FACTOR_CACHE = LruMemo(cap=32)


def _stack_signature(stack: ThermalStack, chip_area: float,
                     grid: int) -> tuple:
    layers = tuple(
        (layer.name, layer.thickness, layer.conductivity, layer.power_layer)
        for layer in stack.layers
    )
    return (
        stack.name,
        layers,
        stack.sink_resistance,
        stack.spreading_resistance_area,
        stack.ambient_c,
        float(chip_area),
        int(grid),
    )


def _factorized(stack: ThermalStack, chip_area: float,
                grid: int) -> _FactorizedStack:
    key = _stack_signature(stack, chip_area, grid)
    return _FACTOR_CACHE.get(
        key, lambda: _FactorizedStack(stack, chip_area, grid)
    )


def factorization_cache_size() -> int:
    """Number of cached LU factorizations (introspection for tests/bench)."""
    return len(_FACTOR_CACHE)


def solve_stack(
    stack: ThermalStack,
    power_maps: List[Optional[List[List[float]]]],
    chip_area: float,
    grid: int = 16,
) -> ThermalSolution:
    """Solve the steady-state temperature field of one stack.

    Parameters
    ----------
    stack:
        The layer stack (Table 10).
    power_maps:
        One entry per stack layer: a ``grid x grid`` power-density map
        (W/m^2) for active layers, ``None`` for passive ones.
    chip_area:
        Die area being modelled (m^2); cells are square tiles of it.
    grid:
        Mesh resolution per layer.
    """
    if len(power_maps) != len(stack.layers):
        raise ValueError("need one power map (or None) per stack layer")
    system = _factorized(stack, chip_area, grid)
    temperatures = system.solve(power_maps)
    return ThermalSolution(
        stack_name=stack.name,
        grid=grid,
        temperatures=temperatures.reshape(len(stack.layers), grid, grid),
        ambient_c=stack.ambient_c,
    )


def solve_floorplans(
    stack: ThermalStack,
    floorplans: List[Floorplan],
    grid: int = 16,
) -> ThermalSolution:
    """Solve a stack given one floorplan per *active* layer.

    The chip area is the (folded) footprint of the floorplans; passive
    layers get no power.
    """
    active = stack.active_indices
    if len(floorplans) != len(active):
        raise ValueError(
            f"{stack.name}: {len(active)} active layers, "
            f"{len(floorplans)} floorplans"
        )
    chip_area = floorplans[0].area
    maps: List[Optional[List[List[float]]]] = [None] * len(stack.layers)
    for index, plan in zip(active, floorplans):
        maps[index] = plan.power_density_map(grid)
    return solve_stack(stack, maps, chip_area, grid=grid)
