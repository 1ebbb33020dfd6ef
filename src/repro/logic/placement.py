"""Slack-based two-layer placement for logic stages (Section 4.1).

The hetero-layer rule of Table 7 — *"Critical paths in bottom layer;
non-critical paths in top"* — becomes an optimisation problem: move as close
to half the gates as possible to the top layer, subject to every moved gate
having enough slack to absorb the top layer's delay penalty.

:func:`partition_netlist` implements it greedily (most-slack-first), then
verifies the post-placement critical path; :func:`fold_stage` wraps the
whole Section 3.1 story for a stage: fold the footprint, shorten the wires,
place the slack-rich half on top, and report the frequency gain.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.logic.netlist import Netlist
from repro.tech import constants

#: Share of a stage's gates the placement tries to move to the top layer.
TARGET_TOP_FRACTION: float = 0.5


@dataclasses.dataclass(frozen=True)
class PlacementResult:
    """Outcome of a two-layer logic partition."""

    name: str
    delay_2d: float
    delay_3d: float
    top_fraction: float
    energy_2d: float
    energy_3d: float

    @property
    def frequency_gain(self) -> float:
        """Relative frequency increase: f3d/f2d - 1."""
        return self.delay_2d / self.delay_3d - 1.0

    @property
    def energy_reduction(self) -> float:
        """Fractional switching-energy reduction."""
        return 1.0 - self.energy_3d / self.energy_2d


def partition_netlist(
    netlist: Netlist,
    top_penalty: float = constants.TOP_LAYER_DELAY_PENALTY,
) -> Dict[str, int]:
    """Assign gates to layers, most-slack-first, critical path at bottom.

    Returns a ``{node: layer}`` map.  Gates are moved to the top layer in
    decreasing slack order until either :data:`TARGET_TOP_FRACTION` of them
    have moved or only gates without enough slack remain.  A gate has
    "enough slack" when its slack exceeds the extra delay it would incur on
    the slow layer (approximated as ``penalty x its current path
    contribution``).
    """
    arrivals, slacks = netlist.timing()
    critical_delay = max(arrivals.values(), default=0.0)
    budget = int(round(TARGET_TOP_FRACTION * len(netlist)))

    placement = {name: 0 for name in netlist.names}
    moved = 0
    for name in sorted(slacks, key=slacks.get, reverse=True):
        if moved >= budget:
            break
        # The gate slows by ~penalty of its own delay once on the top layer;
        # conservatively require slack of penalty x critical delay x a
        # per-gate share.
        required = top_penalty * critical_delay / max(1, len(netlist)) * 4.0
        if slacks[name] > required:
            placement[name] = 1
            moved += 1
    return placement


def fold_stage(
    netlist: Netlist,
    *,
    top_penalty: float = constants.TOP_LAYER_DELAY_PENALTY,
) -> PlacementResult:
    """Fold a logic stage into two layers and measure the gains.

    The 2D netlist is timed as-is; the 3D variant shortens every explicit
    wire by the folded footprint (``sqrt(1 - reduction)``, with Section
    3.1's 41% reduction), places the slack-rich half on the (possibly
    slower) top layer, and re-times.

    With ``top_penalty = 0`` this reproduces the iso-layer Section 3.1
    numbers; with the default 17% penalty it shows the hetero-layer
    partition recovering nearly all of the gain (Section 4.1).
    """
    footprint_reduction = constants.FOOTPRINT_REDUCTION_LOGIC
    delay_2d = netlist.critical_path()[1]
    energy_2d = netlist.switching_energy()

    netlist.scale_wires((1.0 - footprint_reduction) ** 0.5)
    placement = partition_netlist(netlist, top_penalty=top_penalty)
    netlist.assign_layers(placement)
    netlist.apply_layer_penalties(top_penalty)

    delay_3d = netlist.critical_path()[1]
    energy_3d = netlist.switching_energy()
    _, top_count = netlist.layer_counts()

    return PlacementResult(
        name=netlist.name,
        delay_2d=delay_2d,
        delay_3d=delay_3d,
        top_fraction=top_count / max(1, len(netlist)),
        energy_2d=energy_2d,
        energy_3d=energy_3d,
    )
