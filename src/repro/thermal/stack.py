"""Thermal layer stacks (Table 10).

The chip mounts with its heat sink on top (Figure 1): heat generated in
the active layers flows up through the top metal, TIM and integrated heat
spreader into the sink.  Table 10's key asymmetry: the inter-layer
dielectric between the two active layers is 100nm thick in M3D but 20um
in TSV3D — two hundred times more thermal resistance between the bottom
die and the sink, which is why TSV3D runs ~30C hotter (Figure 8) while
M3D stays within ~5C of 2D.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

#: Thermal conductivities (W/m-K), Table 10.
K_METAL: float = 12.0
K_SILICON: float = 120.0
K_ILD: float = 1.5
K_TIM: float = 5.0


@dataclasses.dataclass(frozen=True)
class ThermalLayer:
    """One slab in the vertical stack."""

    name: str
    thickness: float  # m
    conductivity: float  # W/m-K
    power_layer: Optional[int] = None  # index of the active layer, if any

    def __post_init__(self) -> None:
        if self.thickness <= 0 or self.conductivity <= 0:
            raise ValueError(f"{self.name}: thickness/conductivity must be > 0")

    @property
    def vertical_resistance_per_area(self) -> float:
        """R*A of the slab (K*m^2/W)."""
        return self.thickness / self.conductivity


@dataclasses.dataclass(frozen=True)
class ThermalStack:
    """A full stack, ordered from the board side (bottom) to the sink."""

    name: str
    layers: List[ThermalLayer]
    #: Lumped sink resistance from the spreader to ambient (K/W) for the
    #: whole chip — scales with total power only.
    sink_resistance: float = 0.5
    #: Local spreading resistance through TIM/IHS per unit area (K*m^2/W) —
    #: this is the term that makes *power density* matter: a folded core
    #: concentrates the same heat on half the area.
    spreading_resistance_area: float = 10e-6
    ambient_c: float = 45.0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("stack needs layers")
        if self.sink_resistance <= 0:
            raise ValueError("sink resistance must be positive")

    @property
    def active_indices(self) -> List[int]:
        return [i for i, layer in enumerate(self.layers)
                if layer.power_layer is not None]

    def resistance_to_sink_per_area(self, layer_index: int) -> float:
        """R*A from the given layer to the top of the stack (K*m^2/W).

        Sums half the layer's own slab plus every slab above it — the
        quantity that makes the TSV3D bottom die hot.
        """
        if not 0 <= layer_index < len(self.layers):
            raise IndexError("layer index out of range")
        total = self.layers[layer_index].vertical_resistance_per_area / 2.0
        for layer in self.layers[layer_index + 1 :]:
            total += layer.vertical_resistance_per_area
        return total


def stack_2d_thermal() -> ThermalStack:
    """Single active layer (the 2D baseline)."""
    return ThermalStack(
        name="2D",
        layers=[
            ThermalLayer("bottom_bulk_si", 100e-6, K_SILICON),
            ThermalLayer("active", 2e-6, K_SILICON, power_layer=0),
            ThermalLayer("metal", 12e-6, K_METAL),
            ThermalLayer("tim", 50e-6, K_TIM),
        ],
    )


def stack_m3d_thermal() -> ThermalStack:
    """Two active layers 1um apart (Table 10, M3D column)."""
    return ThermalStack(
        name="M3D",
        layers=[
            ThermalLayer("bottom_bulk_si", 100e-6, K_SILICON),
            ThermalLayer("bottom_active", 2e-6, K_SILICON, power_layer=0),
            ThermalLayer("bottom_metal", 1e-6, K_METAL),
            ThermalLayer("ild", 100e-9, K_ILD),
            ThermalLayer("top_active", 100e-9, K_SILICON, power_layer=1),
            ThermalLayer("top_metal", 12e-6, K_METAL),
            ThermalLayer("tim", 50e-6, K_TIM),
        ],
    )


def stack_tsv3d_thermal() -> ThermalStack:
    """Two dies with a thick, resistive die-to-die interface (Table 10,
    TSV3D column; the 20um top silicon is already an aggressive,
    futuristic thinning assumption)."""
    return ThermalStack(
        name="TSV3D",
        layers=[
            ThermalLayer("bottom_bulk_si", 100e-6, K_SILICON),
            ThermalLayer("bottom_active", 2e-6, K_SILICON, power_layer=0),
            ThermalLayer("bottom_metal", 12e-6, K_METAL),
            ThermalLayer("d2d_ild", 20e-6, K_ILD),
            ThermalLayer("top_si", 20e-6, K_SILICON, power_layer=1),
            ThermalLayer("top_metal", 12e-6, K_METAL),
            ThermalLayer("tim", 50e-6, K_TIM),
        ],
    )
