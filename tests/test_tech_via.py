"""Tests for the via models (Tables 1, 2 and Figure 2)."""


import pytest

from repro.tech.via import (
    Via,
    figure2_relative_areas,
    make_miv,
    make_tsv_aggressive,
    make_tsv_research,
    table1_area_overheads,
)


class TestViaGeometry:
    def test_miv_matches_table2(self):
        miv = make_miv()
        assert miv.diameter == pytest.approx(50e-9)
        assert miv.height == pytest.approx(310e-9)
        assert miv.capacitance == pytest.approx(0.1e-15)
        assert miv.resistance == pytest.approx(5.5)

    def test_tsv_aggressive_matches_table2(self):
        tsv = make_tsv_aggressive()
        assert tsv.diameter == pytest.approx(1.3e-6)
        assert tsv.capacitance == pytest.approx(2.5e-15)
        assert tsv.resistance == pytest.approx(0.1)

    def test_tsv_research_matches_table2(self):
        tsv = make_tsv_research()
        assert tsv.diameter == pytest.approx(5e-6)
        assert tsv.capacitance == pytest.approx(37e-15)

    def test_miv_has_no_koz(self):
        assert make_miv().footprint == pytest.approx(make_miv().body_area)

    def test_tsv_koz_inflates_footprint(self):
        tsv = make_tsv_aggressive()
        assert tsv.footprint > tsv.body_area
        # ~6.25 um^2 for the 1.3um TSV with KOZ (Section 2.3.1).
        assert tsv.footprint == pytest.approx(6.25e-12, rel=0.05)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Via("bad", diameter=0, height=1e-6, capacitance=1e-15, resistance=1)
        with pytest.raises(ValueError):
            Via("bad", diameter=1e-6, height=1e-6, capacitance=-1, resistance=1)


class TestViaElectrical:
    def test_miv_capacitance_far_below_tsv(self):
        assert make_miv().capacitance < make_tsv_aggressive().capacitance / 10

    def test_miv_resistance_above_tsv(self):
        # MIVs trade capacitance for resistance (Section 2.1.2).
        assert make_miv().resistance > make_tsv_aggressive().resistance

    def test_rc_products_roughly_similar(self):
        # "The overall RC delay of the MIV and TSV wires is roughly similar."
        miv_rc = make_miv().rc_delay
        tsv_rc = make_tsv_aggressive().rc_delay
        assert miv_rc / tsv_rc > 0.5
        assert miv_rc / tsv_rc < 20.0

    def test_drive_delay_favours_miv(self):
        # The gate delay to drive the via follows capacitance: the MIV wins
        # decisively (Srinivasa et al.: 78% lower).
        driver_r = 1000.0
        assert make_miv().drive_delay(driver_r) < make_tsv_aggressive().drive_delay(
            driver_r
        ) / 5

    def test_drive_delay_needs_positive_driver(self):
        with pytest.raises(ValueError):
            make_miv().drive_delay(0.0)


class TestTable1:
    def test_miv_overheads_negligible(self):
        table = table1_area_overheads()
        assert table["MIV"]["adder32"] < 0.0002
        assert table["MIV"]["sram32"] < 0.002

    def test_tsv_aggressive_adder_overhead(self):
        # Paper: 8.0% of a 32-bit adder.
        table = table1_area_overheads()
        assert table["TSV(1.3um)"]["adder32"] == pytest.approx(0.08, rel=0.15)

    def test_tsv_aggressive_sram_overhead(self):
        # Paper: 271.7% of 32 SRAM cells.
        table = table1_area_overheads()
        assert table["TSV(1.3um)"]["sram32"] == pytest.approx(2.717, rel=0.15)

    def test_tsv_research_dwarfs_components(self):
        table = table1_area_overheads()
        assert table["TSV(5um)"]["adder32"] > 1.0
        assert table["TSV(5um)"]["sram32"] > 20.0

    def test_overhead_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            make_miv().area_overhead_vs(0.0)


class TestFigure2:
    def test_relative_area_ordering(self):
        areas = figure2_relative_areas()
        assert areas["MIV"] < areas["INV_FO1"] < areas["SRAM_bitcell"] \
            < areas["TSV(1.3um)"]

    def test_miv_is_a_small_fraction_of_inverter(self):
        areas = figure2_relative_areas()
        assert areas["MIV"] == pytest.approx(0.07, rel=0.1)

    def test_tsv_is_tens_of_inverters(self):
        areas = figure2_relative_areas()
        assert areas["TSV(1.3um)"] == pytest.approx(37.0, rel=0.25)

    def test_bitcell_about_twice_inverter(self):
        areas = figure2_relative_areas()
        assert areas["SRAM_bitcell"] == pytest.approx(2.0, rel=0.05)
