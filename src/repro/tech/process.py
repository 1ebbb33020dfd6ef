"""Process/layer bundles: everything a partitioner needs to know about
the silicon it is placing gates on.

A :class:`LayerSpec` describes one active layer (its transistor flavour and
speed penalty); a :class:`StackSpec` describes the whole stack (which via
connects the layers, how many layers, what the layers are).  The named
constructors at the bottom build the four stacks evaluated by the paper:

* ``stack_2d``        — conventional single-layer die (the Base core),
* ``stack_m3d_iso``   — two same-performance M3D layers (M3D-Iso),
* ``stack_m3d_hetero``— M3D with a 17%-slower top layer (M3D-Het*),
* ``stack_tsv3d``     — two pre-fabricated dies joined by 1.3um TSVs.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.tech import constants
from repro.tech.transistor import ProcessFlavor
from repro.tech.via import Via, make_miv, make_tsv_aggressive


@dataclasses.dataclass(frozen=True)
class LayerSpec:
    """One active device layer in a (possibly 3D) stack.

    Attributes
    ----------
    name:
        "bottom", "top", ...
    delay_penalty:
        Fractional drive loss of devices on this layer (0.17 for the
        low-temperature-processed M3D top layer, per Shi et al. [45]).
    flavor:
        Device flavour manufactured on this layer.
    """

    name: str
    delay_penalty: float = 0.0
    flavor: ProcessFlavor = ProcessFlavor.HP

    @property
    def relative_speed(self) -> float:
        """Drive speed relative to an HP bottom-layer device (1.0 = full)."""
        flavor_speed = 1.0 if self.flavor is ProcessFlavor.HP else 0.75
        return flavor_speed * (1.0 - self.delay_penalty)


@dataclasses.dataclass(frozen=True)
class StackSpec:
    """A full device stack: ordered layers (bottom first) plus the via type.

    ``via`` is ``None`` for a 2D stack.  ``die_stacked`` distinguishes
    TSV3D (pre-fabricated dies with a thick die-to-die interface, poor
    vertical thermal conduction) from sequential M3D.
    """

    name: str
    layers: List[LayerSpec]
    via: Optional[Via] = None
    die_stacked: bool = False

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a stack needs at least one layer")
        if len(self.layers) > 1 and self.via is None:
            raise ValueError(f"{self.name}: multi-layer stacks need a via type")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def is_3d(self) -> bool:
        return self.num_layers > 1

    @property
    def bottom(self) -> LayerSpec:
        return self.layers[0]

    @property
    def top(self) -> LayerSpec:
        return self.layers[-1]

    @property
    def is_hetero(self) -> bool:
        """True when the layers differ in speed (hetero-layer M3D)."""
        speeds = {round(layer.relative_speed, 6) for layer in self.layers}
        return len(speeds) > 1

    def via_footprint(self) -> float:
        """Layout area of one inter-layer via including KOZ (m^2); 0 in 2D."""
        return self.via.footprint if self.via is not None else 0.0


def stack_2d() -> StackSpec:
    """The conventional planar baseline die."""
    return StackSpec(name="2D", layers=[LayerSpec("bottom")])


def stack_m3d_iso() -> StackSpec:
    """Two-layer M3D with (hypothetical) same-performance layers."""
    return StackSpec(
        name="M3D-Iso",
        layers=[LayerSpec("bottom"), LayerSpec("top", delay_penalty=0.0)],
        via=make_miv(),
    )


def stack_m3d_hetero(
    top_penalty: float = constants.TOP_LAYER_DELAY_PENALTY,
) -> StackSpec:
    """Two-layer M3D with a slower, low-temperature-processed top layer."""
    return StackSpec(
        name="M3D-Het",
        layers=[LayerSpec("bottom"), LayerSpec("top", delay_penalty=top_penalty)],
        via=make_miv(),
    )


def stack_m3d_lp_top(
    top_penalty: float = constants.TOP_LAYER_DELAY_PENALTY,
) -> StackSpec:
    """M3D with an LP/FDSOI top layer (Section 5's energy-oriented design)."""
    return StackSpec(
        name="M3D-LPtop",
        layers=[
            LayerSpec("bottom"),
            LayerSpec("top", delay_penalty=top_penalty, flavor=ProcessFlavor.LP),
        ],
        via=make_miv(),
    )


def stack_tsv3d() -> StackSpec:
    """Two pre-fabricated dies joined with aggressive 1.3um TSVs."""
    return StackSpec(
        name="TSV3D",
        layers=[LayerSpec("bottom"), LayerSpec("top", delay_penalty=0.0)],
        via=make_tsv_aggressive(),
        die_stacked=True,
    )
