"""Tests for the wire RC and folding models."""

import pytest

from repro.tech.transistor import Transistor
from repro.tech.wire import LOCAL_WIRE, SEMI_GLOBAL_WIRE, WireTechnology


class TestWireRc:
    def test_resistance_linear_in_length(self):
        assert LOCAL_WIRE.resistance(2e-6) == pytest.approx(
            2 * LOCAL_WIRE.resistance(1e-6)
        )

    def test_capacitance_linear_in_length(self):
        assert LOCAL_WIRE.capacitance(3e-6) == pytest.approx(
            3 * LOCAL_WIRE.capacitance(1e-6)
        )

    def test_zero_length_wire_is_free(self):
        assert LOCAL_WIRE.resistance(0.0) == 0.0
        assert LOCAL_WIRE.capacitance(0.0) == 0.0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            LOCAL_WIRE.resistance(-1e-6)

    def test_metal_hierarchy_resistance(self):
        # Upper metals are fatter: less resistive per metre.
        assert SEMI_GLOBAL_WIRE.resistance_per_m < LOCAL_WIRE.resistance_per_m

    def test_tungsten_three_times_copper(self):
        w = LOCAL_WIRE.with_tungsten()
        assert w.resistance_per_m == pytest.approx(
            3 * LOCAL_WIRE.resistance_per_m
        )
        assert "w" in w.name

    def test_bad_wire_technology_rejected(self):
        with pytest.raises(ValueError):
            WireTechnology(resistance_per_m=0.0)


class TestElmore:
    def test_delay_superlinear_in_length(self):
        driver = Transistor(width=8.0)
        d1 = LOCAL_WIRE.elmore_delay(100e-6, driver)
        d2 = LOCAL_WIRE.elmore_delay(200e-6, driver)
        # Quadratic wire term makes doubling more than double.
        assert d2 > 2 * d1

    def test_stronger_driver_is_faster(self):
        weak = Transistor(width=2.0)
        strong = Transistor(width=16.0)
        assert LOCAL_WIRE.elmore_delay(50e-6, strong) < LOCAL_WIRE.elmore_delay(
            50e-6, weak
        )

    def test_load_cap_adds_delay(self):
        driver = Transistor(width=8.0)
        assert LOCAL_WIRE.elmore_delay(50e-6, driver, load_cap=10e-15) > (
            LOCAL_WIRE.elmore_delay(50e-6, driver)
        )

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            LOCAL_WIRE.elmore_delay(1e-6, Transistor(), load_cap=-1e-15)


class TestEnergy:
    def test_switching_energy_cv2(self):
        energy = LOCAL_WIRE.switching_energy(100e-6, vdd=0.8)
        expected = LOCAL_WIRE.capacitance(100e-6) * 0.8**2
        assert energy == pytest.approx(expected)

    def test_vdd_must_be_positive(self):
        with pytest.raises(ValueError):
            LOCAL_WIRE.switching_energy(1e-6, vdd=0.0)
