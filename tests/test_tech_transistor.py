"""Tests for transistor device models and layer penalties."""

import pytest

from repro.tech import constants
from repro.tech.transistor import ProcessFlavor, Transistor, VtClass

PENALTY = constants.TOP_LAYER_DELAY_PENALTY


class TestSizing:
    def test_resistance_inverse_in_width(self):
        narrow = Transistor(width=1.0)
        wide = Transistor(width=4.0)
        assert wide.drive_resistance == pytest.approx(narrow.drive_resistance / 4)

    def test_capacitance_linear_in_width(self):
        narrow = Transistor(width=1.0)
        wide = Transistor(width=3.0)
        assert wide.gate_capacitance == pytest.approx(3 * narrow.gate_capacitance)
        assert wide.drain_capacitance == pytest.approx(3 * narrow.drain_capacitance)

    def test_area_linear_in_width(self):
        assert Transistor(width=2.0).area == pytest.approx(2 * Transistor().area)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            Transistor(width=0.0)


class TestVtClasses:
    def test_lvt_fastest(self):
        lvt = Transistor(vt=VtClass.LOW)
        rvt = Transistor(vt=VtClass.REGULAR)
        hvt = Transistor(vt=VtClass.HIGH)
        assert lvt.drive_resistance < rvt.drive_resistance < hvt.drive_resistance

    def test_lvt_leaks_most(self):
        lvt = Transistor(vt=VtClass.LOW)
        hvt = Transistor(vt=VtClass.HIGH)
        assert lvt.leakage_current > 10 * hvt.leakage_current


class TestLayerPenalty:
    def test_top_layer_is_slower(self):
        bottom = Transistor()
        top = Transistor(layer_penalty=PENALTY)
        assert top.drive_resistance > bottom.drive_resistance

    def test_penalty_matches_shi_et_al(self):
        # 17% drive loss -> resistance up by 1/(1-0.17).
        bottom = Transistor()
        top = Transistor(layer_penalty=PENALTY)
        assert top.drive_resistance == pytest.approx(
            bottom.drive_resistance / (1 - PENALTY)
        )

    def test_compensating_width_restores_drive(self):
        # Up-sizing by 1/(1-p) restores a bottom-layer device's drive.
        bottom = Transistor(width=1.0)
        compensated = Transistor(width=1.0 / (1 - PENALTY), layer_penalty=PENALTY)
        assert compensated.drive_resistance == pytest.approx(
            bottom.drive_resistance
        )

    def test_doubling_overcompensates_17_percent(self):
        # The paper doubles widths; that more than cancels a 17% penalty.
        bottom = Transistor(width=1.0)
        doubled_top = Transistor(width=2.0, layer_penalty=PENALTY)
        assert doubled_top.drive_resistance < bottom.drive_resistance

    def test_invalid_penalty_rejected(self):
        with pytest.raises(ValueError):
            Transistor(layer_penalty=1.0)
        with pytest.raises(ValueError):
            Transistor(layer_penalty=-0.1)


class TestFlavors:
    def test_lp_slower_than_hp(self):
        hp = Transistor(flavor=ProcessFlavor.HP)
        lp = Transistor(flavor=ProcessFlavor.LP)
        assert lp.drive_resistance > hp.drive_resistance

    def test_lp_leaks_less(self):
        hp = Transistor(flavor=ProcessFlavor.HP)
        lp = Transistor(flavor=ProcessFlavor.LP)
        assert lp.leakage_current < hp.leakage_current / 2

