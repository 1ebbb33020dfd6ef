"""Tests for the layer/stack specifications."""

import pytest

from repro.tech import constants
from repro.tech.process import (
    LayerSpec,
    StackSpec,
    stack_2d,
    stack_m3d_hetero,
    stack_m3d_iso,
    stack_m3d_lp_top,
    stack_tsv3d,
)
from repro.tech.transistor import ProcessFlavor


class TestLayerSpec:
    def test_bottom_layer_full_speed(self):
        assert LayerSpec("bottom").relative_speed == pytest.approx(1.0)

    def test_penalised_layer_slower(self):
        top = LayerSpec("top", delay_penalty=0.17)
        assert top.relative_speed == pytest.approx(0.83)

    def test_lp_layer_slower_still(self):
        lp = LayerSpec("top", flavor=ProcessFlavor.LP)
        assert lp.relative_speed < 1.0


class TestStacks:
    def test_2d_is_single_layer(self):
        stack = stack_2d()
        assert not stack.is_3d
        assert stack.via is None
        assert stack.via_footprint() == 0.0

    def test_m3d_iso_not_hetero(self):
        assert not stack_m3d_iso().is_hetero

    def test_m3d_hetero_is_hetero(self):
        stack = stack_m3d_hetero()
        assert stack.is_hetero
        assert stack.top.delay_penalty == pytest.approx(
            constants.TOP_LAYER_DELAY_PENALTY
        )

    def test_lp_top_stack_is_hetero(self):
        assert stack_m3d_lp_top().is_hetero

    def test_tsv3d_uses_thick_vias(self):
        tsv = stack_tsv3d()
        m3d = stack_m3d_iso()
        assert tsv.via_footprint() > 100 * m3d.via_footprint()
        assert tsv.die_stacked
        assert not m3d.die_stacked

    def test_custom_penalty_propagates(self):
        stack = stack_m3d_hetero(top_penalty=0.25)
        assert stack.top.delay_penalty == 0.25

    def test_multi_layer_requires_via(self):
        with pytest.raises(ValueError):
            StackSpec(name="bad", layers=[LayerSpec("a"), LayerSpec("b")])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            StackSpec(name="bad", layers=[])

    def test_bottom_and_top_accessors(self):
        stack = stack_m3d_hetero()
        assert stack.bottom.name == "bottom"
        assert stack.top.name == "top"
        assert stack.num_layers == 2
