"""Tests for the power/energy models and DVFS derivations."""

import pytest

from repro.design.registry import registered_points
from repro.design.resolve import resolve
from repro.power.core_power import power_model_for
from repro.power.dvfs import (
    OperatingPoint,
    iso_power_core_count,
    min_voltage_at_base_frequency,
)
from repro.power.energy import (
    factors_for_stack,
    vdd_dynamic_scale,
    vdd_leakage_scale,
)
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_by_name

BASE = resolve("Base").config
TSV = resolve("TSV3D").config
HET = resolve("M3D-Het").config

#: The energy-factor table each kind of design takes, keyed by (stack,
#: slow top layer); a point's ``power_stack`` overrides it.
ENERGY_TABLES = {
    ("2D", False): "2D",
    ("TSV3D", False): "TSV3D",
    ("TSV3D", True): "TSV3D",
    ("M3D", False): "M3D-Iso",
    ("M3D", True): "M3D",
}


@pytest.fixture(scope="module")
def gamess_runs():
    trace = generate_trace(spec_by_name()["Gamess"], 6000)
    configs = [BASE, TSV, HET]
    return {cfg.name: run_trace(cfg, trace) for cfg in configs}


class TestStackFactors:
    def test_2d_identity(self):
        f = factors_for_stack("2D")
        assert f.arrays == f.logic == f.wires == f.clock == 1.0

    def test_m3d_saves_everywhere(self):
        f = factors_for_stack("M3D")
        assert f.arrays < 1.0
        assert f.logic < 1.0
        assert f.wires < 1.0
        assert f.clock < 1.0

    def test_tsv_saves_less_than_m3d(self):
        m3d = factors_for_stack("M3D")
        tsv = factors_for_stack("TSV3D")
        assert tsv.arrays > m3d.arrays
        assert tsv.clock > m3d.clock

    def test_lp_top_extends_m3d(self):
        lp = factors_for_stack("M3D-LPtop")
        m3d = factors_for_stack("M3D")
        assert lp.arrays < m3d.arrays
        assert lp.leakage_power < m3d.leakage_power

    def test_unknown_stack(self):
        with pytest.raises(ValueError):
            factors_for_stack("PCB")


class TestEnergyTableMapping:
    @pytest.mark.parametrize("point", registered_points(),
                             ids=lambda point: point.name)
    def test_every_registered_point(self, point):
        expected = point.power_stack or ENERGY_TABLES[point.stack, point.hetero]
        assert power_model_for(resolve(point.name)).factors.stack == expected


class TestVddScaling:
    def test_dynamic_quadratic(self):
        assert vdd_dynamic_scale(0.4, nominal=0.8) == pytest.approx(0.25)

    def test_leakage_cubic(self):
        assert vdd_leakage_scale(0.4, nominal=0.8) == pytest.approx(0.125)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            vdd_dynamic_scale(0.0)


class TestCorePower:
    def test_base_power_near_6_4w(self, gamess_runs):
        report = power_model_for(BASE).evaluate(gamess_runs["Base"])
        assert 3.0 < report.average_power < 11.0

    def test_m3d_energy_below_base(self, gamess_runs):
        base = power_model_for(BASE).evaluate(gamess_runs["Base"])
        m3d = power_model_for(HET).evaluate(gamess_runs["M3D-Het"])
        ratio = m3d.normalized_to(base)
        assert 0.5 < ratio < 0.85

    def test_tsv_between_m3d_and_base(self, gamess_runs):
        base = power_model_for(BASE).evaluate(gamess_runs["Base"])
        tsv = power_model_for(TSV).evaluate(gamess_runs["TSV3D"])
        m3d = power_model_for(HET).evaluate(gamess_runs["M3D-Het"])
        assert m3d.total < tsv.total < base.total

    def test_components_positive(self, gamess_runs):
        report = power_model_for(BASE).evaluate(gamess_runs["Base"])
        for value in (report.arrays, report.logic, report.wires,
                      report.clock, report.leakage, report.uncore):
            assert value > 0

    def test_total_is_sum(self, gamess_runs):
        report = power_model_for(BASE).evaluate(gamess_runs["Base"])
        assert report.total == pytest.approx(report.dynamic + report.leakage)

    def test_lower_vdd_lowers_energy(self, gamess_runs):
        nominal = power_model_for(HET).evaluate(gamess_runs["M3D-Het"])
        low_v = power_model_for("M3D-Het-2X").evaluate(gamess_runs["M3D-Het"])
        assert low_v.dynamic < nominal.dynamic


class TestDvfs:
    def test_min_voltage_is_750mv(self):
        assert min_voltage_at_base_frequency() == pytest.approx(0.75)

    def test_iso_power_count_is_eight(self):
        # Section 6.1: "in between 7 and 8. We pick 8."
        assert iso_power_core_count() == 8

    def test_operating_point_scales(self):
        nominal = OperatingPoint(3.3e9, 0.8)
        low = OperatingPoint(3.3e9, 0.75)
        assert low.dynamic_power_scale < nominal.dynamic_power_scale
        assert low.leakage_power_scale < nominal.leakage_power_scale
