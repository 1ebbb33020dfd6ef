"""Tests for the thermal stacks, floorplan and grid solver."""

import pytest

from repro.lru import LruMemo
from repro.thermal import hotspot
from repro.thermal.floorplan import (
    BLOCK_AREAS,
    floorplan_2d,
    floorplan_folded,
)
from repro.thermal.grid import solve_floorplans, solve_stack
from repro.thermal.hotspot import peak_temperature_for
from repro.thermal.stack import (
    ThermalLayer,
    stack_2d_thermal,
    stack_m3d_thermal,
    stack_tsv3d_thermal,
)
from repro.workloads.spec import spec_by_name


class TestStacks:
    def test_m3d_ild_far_thinner_than_tsv(self):
        m3d = {layer.name: layer for layer in stack_m3d_thermal().layers}
        tsv = {layer.name: layer for layer in stack_tsv3d_thermal().layers}
        assert m3d["ild"].thickness == pytest.approx(100e-9)
        assert tsv["d2d_ild"].thickness == pytest.approx(20e-6)

    def test_bottom_layer_resistance_ordering(self):
        # The TSV3D bottom die sees far more resistance to the sink.
        m3d = stack_m3d_thermal()
        tsv = stack_tsv3d_thermal()
        m3d_bottom = m3d.resistance_to_sink_per_area(m3d.active_indices[0])
        tsv_bottom = tsv.resistance_to_sink_per_area(tsv.active_indices[0])
        assert tsv_bottom > 1.8 * m3d_bottom

    def test_two_active_layers_in_3d(self):
        assert len(stack_m3d_thermal().active_indices) == 2
        assert len(stack_tsv3d_thermal().active_indices) == 2
        assert len(stack_2d_thermal().active_indices) == 1

    def test_invalid_layer(self):
        with pytest.raises(ValueError):
            ThermalLayer("bad", thickness=0.0, conductivity=1.0)


class TestFloorplan:
    def test_areas_tile_the_core(self):
        assert sum(BLOCK_AREAS.values()) == pytest.approx(1.0, abs=0.02)

    def test_power_conserved(self):
        plan = floorplan_2d(6.4)
        assert plan.total_power == pytest.approx(6.4, rel=0.02)

    def test_folded_halves_area(self):
        layers = floorplan_folded(6.4)
        assert layers[0].area == pytest.approx(floorplan_2d(6.4).area / 2)

    def test_folded_splits_power(self):
        bottom, top = floorplan_folded(6.4, hot_block_extra_saving=False)
        assert bottom.total_power + top.total_power == pytest.approx(
            6.4, rel=0.02
        )
        assert bottom.total_power > top.total_power  # 55/45 split

    def test_hot_block_extra_saving_reduces_power(self):
        with_saving = floorplan_folded(6.4, hot_block_extra_saving=True)
        without = floorplan_folded(6.4, hot_block_extra_saving=False)
        assert sum(p.total_power for p in with_saving) < sum(
            p.total_power for p in without
        )

    def test_fp_profile_shifts_heat_to_fpu(self):
        fp = floorplan_2d(6.4, spec_by_name()["Gems"])
        integer = floorplan_2d(6.4, spec_by_name()["Sjeng"])
        fpu_fp = next(b for b in fp.blocks if b.name == "fpu").power
        fpu_int = next(b for b in integer.blocks if b.name == "fpu").power
        assert fpu_fp > fpu_int

    def test_density_map_conserves_power(self):
        plan = floorplan_2d(6.4)
        grid = 16
        cell_area = plan.area / grid**2
        total = sum(
            d * cell_area for row in plan.power_density_map(grid) for d in row
        )
        assert total == pytest.approx(plan.total_power, rel=0.05)


class TestSolver:
    def test_all_temperatures_above_ambient(self):
        stack = stack_2d_thermal()
        plan = floorplan_2d(6.4)
        solution = solve_floorplans(stack, [plan], grid=8)
        assert (solution.temperatures >= stack.ambient_c - 1e-6).all()

    def test_zero_power_is_ambient(self):
        stack = stack_2d_thermal()
        maps = [None] * len(stack.layers)
        solution = solve_stack(stack, maps, chip_area=5e-6, grid=6)
        assert solution.peak_delta_c == pytest.approx(0.0, abs=1e-6)

    def test_more_power_hotter(self):
        cool = peak_temperature_for("Base", 4.0, grid=8)
        hot = peak_temperature_for("Base", 8.0, grid=8)
        assert hot.peak_c > cool.peak_c

    def test_floorplan_count_checked(self):
        with pytest.raises(ValueError):
            solve_floorplans(stack_m3d_thermal(), [floorplan_2d(6.4)], grid=6)


class TestReportMemo:
    """Each distinct ``_solve_design`` input is solved once; the memo is
    bounded because ``repro serve`` is long-lived."""

    def test_repeat_is_the_fresh_report_without_a_solve(self, monkeypatch):
        monkeypatch.setattr(hotspot, "_REPORTS", LruMemo(cap=8))
        profile = spec_by_name()["Gems"]
        first = peak_temperature_for("M3D-Het", 6.4, profile, grid=8)
        solves = []
        real = hotspot.solve_floorplans

        def counting(*args, **kwargs):
            solves.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hotspot, "solve_floorplans", counting)
        assert peak_temperature_for("M3D-Het", 6.4, profile, grid=8) is first
        assert solves == []
        assert first == hotspot._solve_design("M3D-Het", "M3D", 6.4,
                                              profile, 8)
        # Any other input is a new solve.
        assert peak_temperature_for("M3D-Het", 6.4, profile, grid=10) != first
        assert len(solves) == 2

    def test_memo_holds_at_its_cap(self, monkeypatch):
        cap = hotspot._REPORTS.cap
        assert cap == 1024
        monkeypatch.setattr(hotspot, "_REPORTS", LruMemo(cap=cap))
        solves = []

        def fake_solve(*args):
            solves.append(args)
            return args

        monkeypatch.setattr(hotspot, "_solve_design", fake_solve)
        for power in range(cap + 1):
            peak_temperature_for("Base", float(power), grid=8)
        assert len(hotspot._REPORTS) == cap and len(solves) == cap + 1
        # The newest report is still cached; the oldest was evicted.
        peak_temperature_for("Base", float(cap), grid=8)
        assert len(solves) == cap + 1
        assert peak_temperature_for("Base", 0.0, grid=8) == (
            "Base", "2D", 0.0, None, 8)
        assert len(solves) == cap + 2 and len(hotspot._REPORTS) == cap


class TestFigure8Physics:
    def test_ordering_base_m3d_tsv(self):
        base = peak_temperature_for("Base", 6.4, grid=10)
        m3d = peak_temperature_for("M3D-Het", 6.4, grid=10)
        tsv = peak_temperature_for("TSV3D", 6.4, grid=10)
        assert base.peak_c < m3d.peak_c < tsv.peak_c

    def test_m3d_delta_small(self):
        # Section 7.1.3: M3D-Het is ~5C above Base on average, <=10C max.
        # At *equal* power this is a stress case (the real M3D core draws
        # ~24% less); the delta must still stay far below TSV3D's ~+30C.
        base = peak_temperature_for("Base", 6.4, grid=10)
        m3d = peak_temperature_for("M3D-Het", 6.4, grid=10)
        assert m3d.peak_c - base.peak_c < 24.0
        realistic = peak_temperature_for("M3D-Het", 6.4 * 0.76, grid=10)
        assert realistic.peak_c - base.peak_c < 11.0

    def test_tsv_delta_large(self):
        # TSV3D averages ~+30C.
        base = peak_temperature_for("Base", 6.4, grid=10)
        tsv = peak_temperature_for("TSV3D", 6.4, grid=10)
        assert tsv.peak_c - base.peak_c > 15.0

    def test_tsv_bottom_die_is_the_hot_one(self):
        tsv = peak_temperature_for("TSV3D", 6.4, grid=10)
        assert tsv.bottom_layer_peak_c > tsv.top_layer_peak_c

    def test_m3d_layers_tightly_coupled(self):
        # "the temperature variation across layers is small."
        m3d = peak_temperature_for("M3D-Het", 6.4, grid=10)
        assert abs(m3d.bottom_layer_peak_c - m3d.top_layer_peak_c) < 3.0

    def test_tsv_exceeds_tjmax_when_hot(self):
        tsv = peak_temperature_for("TSV3D", 8.0, grid=10)
        assert tsv.exceeds_tjmax
