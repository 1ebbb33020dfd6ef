"""Tests for bitcell geometry/electrical models."""

import pytest

from repro.sram.bitcell import Bitcell
from repro.tech.via import make_miv, make_tsv_aggressive


class TestGeometry:
    def test_area_grows_superlinearly_with_ports(self):
        # "The area is proportional to the square of the number of ports."
        one = Bitcell(ports=1).area
        nine = Bitcell(ports=9).area
        eighteen = Bitcell(ports=18).area
        assert nine > 4 * one
        assert eighteen > 3 * nine  # clearly superlinear

    def test_both_dimensions_grow_with_ports(self):
        small = Bitcell(ports=2)
        big = Bitcell(ports=12)
        assert big.width > small.width
        assert big.height > small.height

    def test_cam_cell_bigger_than_sram(self):
        assert Bitcell(ports=2, cam=True).area > Bitcell(ports=2).area

    def test_storage_less_half_cell_smaller(self):
        full = Bitcell(ports=4)
        half = Bitcell(ports=4, has_storage=False)
        assert half.area < full.area

    def test_upsized_ports_widen_cell_sublinearly(self):
        base = Bitcell(ports=8)
        sized_up = base.scaled(2.0)
        assert sized_up.width > base.width
        assert sized_up.width < 2 * base.width  # track pitch is litho-limited

    def test_miv_vias_nearly_free(self):
        base = Bitcell(ports=9)
        with_vias = base.with_vias(2, make_miv())
        assert with_vias.area < base.area * 1.2

    def test_tsv_vias_ruinous(self):
        base = Bitcell(ports=9)
        with_vias = base.with_vias(2, make_tsv_aggressive())
        assert with_vias.area > base.area * 1.8

    def test_storage_or_ports_required(self):
        with pytest.raises(ValueError):
            Bitcell(ports=0, has_storage=False)

    def test_vias_require_technology(self):
        with pytest.raises(ValueError):
            Bitcell(ports=2, vias_per_cell=2)


class TestElectrical:
    def test_wordline_load_grows_with_upsizing(self):
        # Section 4.2.1: wider access transistors "increase the capacitance
        # on the wordlines slightly".
        base = Bitcell(ports=4)
        sized_up = base.scaled(2.0)
        assert sized_up.wordline_cap_per_cell > base.wordline_cap_per_cell

    def test_layer_penalty_slows_read_path(self):
        bottom = Bitcell(ports=2)
        top = bottom.on_layer(0.17)
        assert top.read_path_resistance > bottom.read_path_resistance

    def test_upsizing_compensates_penalty(self):
        bottom = Bitcell(ports=2)
        top_upsized = bottom.on_layer(0.17).scaled(2.0)
        assert top_upsized.read_path_resistance < bottom.read_path_resistance

    def test_match_path_stronger_than_read_path(self):
        cell = Bitcell(ports=2, cam=True)
        assert cell.match_path_resistance < cell.read_path_resistance

    def test_leakage_grows_with_ports(self):
        assert Bitcell(ports=8).leakage > Bitcell(ports=2).leakage

    def test_cam_leaks_more(self):
        assert Bitcell(ports=2, cam=True).leakage > Bitcell(ports=2).leakage

