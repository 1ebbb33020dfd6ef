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

from repro.design.resolve import resolve
from repro.engine.sweep import get_engine
from repro.power.core_power import power_model_for
from repro.tech.constants import TUNGSTEN_RESISTANCE_FACTOR
from repro.tech.transistor import Transistor, VtClass
from repro.tech.wire import LOCAL_WIRE
from repro.workloads.parallel import parallel_profiles
from repro.workloads.profiles import first_apps
from repro.workloads.spec import spec_profiles


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
    devices and switches less in the top layer.
    """
    base_cfg = resolve("Base").config
    het_cfg = resolve("M3D-Het").config
    base_model = power_model_for(base_cfg)
    het_model = power_model_for(het_cfg)
    # M3D-LPtop's config is M3D-Het's; only its energy table differs.
    lp_model = power_model_for("M3D-LPtop")

    engine = get_engine()
    names: List[str] = []
    het_energy: List[float] = []
    lp_energy: List[float] = []
    for profile in first_apps(spec_profiles(), apps):
        base_run = engine.simulate(base_cfg, profile, uops)
        het_run = engine.simulate(het_cfg, profile, uops)
        base_report = base_model.evaluate(base_run)
        names.append(profile.name)
        het_energy.append(het_model.evaluate(het_run).normalized_to(base_report))
        lp_energy.append(lp_model.evaluate(het_run).normalized_to(base_report))
    return LpTopResult(names, het_energy, lp_energy)


def design_alternatives_study(total_uops: int = 24000,
                              apps: int = 6) -> Dict[str, Dict[str, float]]:
    """Section 5's three ways to spend the M3D wire-delay win.

    Returns ``{design: {"speedup": ..., "energy": ...}}`` averaged over a
    subset of the parallel suite, all against the 4-core 2D Base.
    """
    configs = [
        resolve("Base-4C").config,
        resolve("M3D-Het-4C").config,    # spend on frequency
        resolve("M3D-Het-W").config,     # spend on issue width
        resolve("M3D-Het-2X").config,    # spend on cores at low voltage
    ]
    models = {cfg.name: power_model_for(cfg) for cfg in configs}
    sums = {cfg.name: {"speedup": 0.0, "energy": 0.0} for cfg in configs}

    engine = get_engine()
    profiles = first_apps(parallel_profiles(), apps)
    for profile in profiles:
        base = engine.simulate_parallel(configs[0], profile, total_uops)
        base_report = models["Base"].evaluate_multicore(base)
        for cfg in configs:
            result = engine.simulate_parallel(cfg, profile, total_uops)
            report = models[cfg.name].evaluate_multicore(result)
            sums[cfg.name]["speedup"] += result.speedup_over(base)
            sums[cfg.name]["energy"] += report.normalized_to(
                base_report, result, base)
    return {
        name: {key: value / len(profiles) for key, value in metrics.items()}
        for name, metrics in sums.items()
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
