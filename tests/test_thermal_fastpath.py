"""The vectorized+factorized thermal solver must match the reference.

``solve_stack`` assembles the conductance matrix with vectorized COO
construction and reuses one ``splu`` factorization per (stack, area,
grid); ``tests.references.solve_stack_reference`` keeps the original
scalar ``lil_matrix``+``spsolve`` implementation as the oracle.
"""

import numpy as np
import pytest

from repro.thermal.floorplan import floorplan_folded
from repro.thermal.grid import (
    _FACTOR_CACHE,
    factorization_cache_size,
    solve_floorplans,
    solve_stack,
)
from repro.thermal.stack import (
    AMBIENT_C,
    stack_2d_thermal,
    stack_m3d_thermal,
    stack_tsv3d_thermal,
)
from tests.references import solve_stack_reference

CHIP_AREA = 5e-6

ALL_STACKS = [stack_2d_thermal, stack_m3d_thermal, stack_tsv3d_thermal]


def _maps(stack, grid, density=2e6):
    """Non-uniform power maps on every active layer (None elsewhere)."""
    maps = [None] * len(stack.layers)
    for rank, index in enumerate(stack.active_indices):
        maps[index] = [
            [density * (1.0 + 0.1 * rank) * (1.0 + 0.03 * r + 0.01 * c)
             for c in range(grid)]
            for r in range(grid)
        ]
    return maps


class TestFastPathMatchesReference:
    @pytest.mark.parametrize("make_stack", ALL_STACKS)
    @pytest.mark.parametrize("grid", [6, 10, 12])
    def test_all_stacks_and_grids(self, make_stack, grid):
        stack = make_stack()
        maps = _maps(stack, grid)
        fast = solve_stack(stack, maps, CHIP_AREA, grid=grid)
        reference = solve_stack_reference(stack, maps, CHIP_AREA, grid=grid)
        assert np.abs(fast.temperatures - reference.temperatures).max() < 1e-9
        assert fast.peak_c == pytest.approx(reference.peak_c, abs=1e-9)

    @pytest.mark.parametrize("make_stack", ALL_STACKS)
    def test_zero_power(self, make_stack):
        stack = make_stack()
        maps = [None] * len(stack.layers)
        maps[stack.active_indices[0]] = [[0.0] * 8 for _ in range(8)]
        fast = solve_stack(stack, maps, CHIP_AREA, grid=8)
        assert fast.peak_c == pytest.approx(AMBIENT_C, abs=1e-6)

    def test_floorplan_solve_matches_reference(self):
        stack = stack_m3d_thermal()
        plans = floorplan_folded(6.4)
        grid = 10
        chip_area = plans[0].area
        maps = [None] * len(stack.layers)
        for index, plan in zip(stack.active_indices, plans):
            maps[index] = plan.power_density_map(grid)
        via_fast = solve_floorplans(stack, plans, grid=grid)
        reference = solve_stack_reference(stack, maps, chip_area, grid=grid)
        assert np.abs(
            via_fast.temperatures - reference.temperatures
        ).max() < 1e-9


class TestFactorizationReuse:
    def test_factorization_cached_per_stack_grid_area(self):
        stack = stack_2d_thermal()
        _FACTOR_CACHE.clear()
        solve_stack(stack, _maps(stack, 6), CHIP_AREA, grid=6)
        assert factorization_cache_size() == 1
        # Same system: reuse, no new factorization.
        solve_stack(stack, _maps(stack, 6, density=9e6), CHIP_AREA, grid=6)
        assert factorization_cache_size() == 1
        # New grid (and new area): new entries.
        solve_stack(stack, _maps(stack, 8), CHIP_AREA, grid=8)
        solve_stack(stack, _maps(stack, 6), 2 * CHIP_AREA, grid=6)
        assert factorization_cache_size() == 3

    def test_repeated_solves_stay_exact(self):
        # The factorization must not drift across reuse.
        stack = stack_tsv3d_thermal()
        maps = _maps(stack, 9)
        first = solve_stack(stack, maps, CHIP_AREA, grid=9)
        for _ in range(5):
            again = solve_stack(stack, maps, CHIP_AREA, grid=9)
            assert np.array_equal(again.temperatures, first.temperatures)

    def test_wrong_map_count_rejected(self):
        stack = stack_2d_thermal()
        with pytest.raises(ValueError):
            solve_stack(stack, [], CHIP_AREA, grid=6)
        with pytest.raises(ValueError):
            solve_stack_reference(stack, [], CHIP_AREA, grid=6)
