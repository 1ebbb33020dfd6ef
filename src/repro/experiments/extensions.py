"""Extension studies beyond the paper's main tables (Sections 5, 7.1.2).

* :func:`lp_top_energy_study` — Section 7.1.2: manufacture the top layer in
  an LP/FDSOI process; same performance as M3D-Het, a further ~9 energy
  points saved.
* :func:`design_alternatives_study` — Section 5's three ways to spend the
  wire-delay reduction: raise the frequency (M3D-Het), widen the core
  (M3D-Het-W), or lower the voltage and add cores (M3D-Het-2X).
* :func:`tungsten_interconnect_study` — Section 2.4.2's alternative
  manufacturing route: keep a hot-process top layer but pay 3x wire
  resistance in the bottom layer's tungsten interconnect.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.design.sweep import evaluate_points
from repro.tech.constants import TUNGSTEN_RESISTANCE_FACTOR
from repro.tech.transistor import Transistor, VtClass
from repro.tech.wire import LOCAL_WIRE


@dataclasses.dataclass(frozen=True)
class LpTopResult:
    """Energy of M3D-Het vs the LP-top variant, normalised to Base."""

    apps: List[str]
    het_energy: List[float]
    lp_top_energy: List[float]

    @property
    def average_extra_points(self) -> float:
        """Extra energy points the LP top layer saves (paper: ~9)."""
        het = sum(self.het_energy) / len(self.het_energy)
        lp = sum(self.lp_top_energy) / len(self.lp_top_energy)
        return (het - lp) * 100.0


def lp_top_energy_study(uops: int = 6000, apps: int = 8) -> LpTopResult:
    """Section 7.1.2: LP/FDSOI top layer at M3D-Het performance.

    The LP-top design clocks like M3D-Het (our partitioning hides the slow
    layer either way) but leaks an order of magnitude less in half the
    devices and switches less in the top layer.  Its config differs from
    M3D-Het's only in its name, so its runs time exactly like M3D-Het's
    and only its energy table differs.
    """
    het, lp_top = evaluate_points(["M3D-Het", "M3D-LPtop"], uops=uops,
                                  apps=apps)
    return LpTopResult(list(het.apps), het.energy, lp_top.energy)


def design_alternatives_study(total_uops: int = 24000,
                              apps: int = 6) -> Dict[str, Dict[str, float]]:
    """Section 5's three ways to spend the M3D wire-delay win.

    Returns ``{config name: {"speedup": ..., "energy": ...}}`` averaged
    over a subset of the parallel suite, all against the 4-core 2D Base.
    """
    evaluations = evaluate_points(
        ["Base-4C",
         "M3D-Het-4C",   # spend on frequency
         "M3D-Het-W",    # spend on issue width
         "M3D-Het-2X"],  # spend on cores at low voltage
        multicore_uops=total_uops, apps=apps,
    )
    return {
        ev.design.config.name: {"speedup": ev.avg_speedup,
                                "energy": ev.avg_energy}
        for ev in evaluations
    }


def tungsten_interconnect_study() -> Dict[str, float]:
    """Section 2.4.2: tungsten bottom-layer wires vs a slow top layer.

    Compares the wire delay of a representative semi-global path under
    copper vs tungsten, quantifying why the paper prefers the slow-top-
    layer route over the tungsten route.
    """
    driver = Transistor(width=16.0, vt=VtClass.LOW)
    length = 200e-6
    copper = LOCAL_WIRE.elmore_delay(length, driver)
    tungsten = LOCAL_WIRE.with_tungsten().elmore_delay(length, driver)
    return {
        "copper_ps": copper * 1e12,
        "tungsten_ps": tungsten * 1e12,
        "slowdown": tungsten / copper,
        "resistance_factor": TUNGSTEN_RESISTANCE_FACTOR,
    }
