"""Reproduction entry points for the paper's figures (6-10).

Each function sweeps the relevant configurations over the relevant
application suite and returns per-application series shaped exactly like
the paper's bar charts, plus the suite average the text quotes.

All sweeps execute through :mod:`repro.engine`: figure6, figure7 and
figure8 share one cached single-core sweep, figure9 and figure10 one
multicore sweep, and ``--jobs`` fans the work across worker processes
without changing any result.  Within a sweep, each application's full
config lineup is evaluated as one :mod:`repro.uarch.kernel` batch —
one trace decode and one cache/predictor replay per L2 geometry serve
every configuration — so a figure costs roughly one simulation per app,
not one per (app, config) pair.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.engine.sweep import get_engine
from repro.power.core_power import power_model_for
from repro.thermal.hotspot import peak_temperature_for
from repro.workloads.parallel import parallel_profiles
from repro.workloads.spec import spec_profiles

#: Default measured trace length per application (single core).
SINGLE_CORE_UOPS: int = 8000

#: Default total work per parallel application (all cores together).
MULTICORE_UOPS: int = 24000

#: The three designs whose thermals Figure 8 compares.
FIGURE8_DESIGNS = ("Base", "TSV3D", "M3D-Het")


@dataclasses.dataclass(frozen=True)
class FigureSeries:
    """One figure: per-app values per configuration, plus averages."""

    name: str
    apps: List[str]
    values: Dict[str, List[float]]  # config -> per-app series

    def average(self, config: str) -> float:
        series = self.values[config]
        return sum(series) / len(series) if series else 0.0

    def averages(self) -> Dict[str, float]:
        return {config: self.average(config) for config in self.values}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view: per-app series keyed by app name, plus the
        suite averages (consumed by the golden snapshot layer)."""
        return {
            "name": self.name,
            "apps": list(self.apps),
            "series": {
                config: {
                    app: value
                    for app, value in zip(self.apps, self.values[config])
                }
                for config in self.values
            },
            "averages": self.averages(),
        }

    def print(self) -> None:
        print(f"\n=== {self.name} ===")
        configs = list(self.values)
        header = "app".ljust(15) + "".join(f"{c:>14}" for c in configs)
        print(header)
        for i, app in enumerate(self.apps):
            row = app.ljust(15) + "".join(
                f"{self.values[c][i]:14.3f}" for c in configs
            )
            print(row)
        print(
            "Average".ljust(15)
            + "".join(f"{self.average(c):14.3f}" for c in configs)
        )


def figure6(uops: int = SINGLE_CORE_UOPS, seed: int = 1234) -> FigureSeries:
    """Figure 6: single-core speedup over Base, 21 SPEC2006 apps."""
    configs, runs = get_engine().single_core_runs(uops, seed=seed)
    apps = [p.name for p in spec_profiles()]
    values: Dict[str, List[float]] = {cfg.name: [] for cfg in configs}
    for app in apps:
        base = runs[app]["Base"]
        for cfg in configs:
            values[cfg.name].append(runs[app][cfg.name].speedup_over(base))
    return FigureSeries("Figure 6: single-core speedup", apps, values)


def figure7(uops: int = SINGLE_CORE_UOPS, seed: int = 1234) -> FigureSeries:
    """Figure 7: single-core energy normalised to Base."""
    configs, runs = get_engine().single_core_runs(uops, seed=seed)
    models = {cfg.name: power_model_for(cfg) for cfg in configs}
    apps = [p.name for p in spec_profiles()]
    values: Dict[str, List[float]] = {cfg.name: [] for cfg in configs}
    for app in apps:
        base_report = models["Base"].evaluate(runs[app]["Base"])
        for cfg in configs:
            report = models[cfg.name].evaluate(runs[app][cfg.name])
            values[cfg.name].append(report.normalized_to(base_report))
    return FigureSeries("Figure 7: single-core normalized energy", apps, values)


def figure8(uops: int = SINGLE_CORE_UOPS, seed: int = 1234,
            grid: int = 12) -> FigureSeries:
    """Figure 8: peak temperature for Base, TSV3D and M3D-Het.

    Per-app core power comes from the power model's Base run, scaled per
    design by its average power ratio (power = energy / time).
    """
    configs, runs = get_engine().single_core_runs(uops, seed=seed)
    by_name = {cfg.name: cfg for cfg in configs}
    models = {cfg.name: power_model_for(cfg) for cfg in configs}
    apps = [p.name for p in spec_profiles()]
    profiles = {p.name: p for p in spec_profiles()}
    values: Dict[str, List[float]] = {name: [] for name in FIGURE8_DESIGNS}
    for app in apps:
        profile = profiles[app]
        for design in FIGURE8_DESIGNS:
            power = models[design].evaluate(runs[app][design]).average_power
            values[design].append(
                peak_temperature_for(by_name[design], power, profile,
                                     grid=grid).peak_c
            )
    return FigureSeries("Figure 8: peak temperature (C)", apps, values)


def figure9(total_uops: int = MULTICORE_UOPS, seed: int = 1234) -> FigureSeries:
    """Figure 9: multicore speedup over the 4-core Base."""
    configs, runs = get_engine().multicore_runs(total_uops, seed=seed)
    apps = [p.name for p in parallel_profiles()]
    values: Dict[str, List[float]] = {cfg.name: [] for cfg in configs}
    for app in apps:
        base = runs[app]["Base"]
        for cfg in configs:
            values[cfg.name].append(runs[app][cfg.name].speedup_over(base))
    return FigureSeries("Figure 9: multicore speedup", apps, values)


def figure10(total_uops: int = MULTICORE_UOPS, seed: int = 1234) -> FigureSeries:
    """Figure 10: multicore energy normalised to the 4-core Base."""
    configs, runs = get_engine().multicore_runs(total_uops, seed=seed)
    models = {cfg.name: power_model_for(cfg) for cfg in configs}
    apps = [p.name for p in parallel_profiles()]
    values: Dict[str, List[float]] = {cfg.name: [] for cfg in configs}
    for app in apps:
        base_report = models["Base"].evaluate_multicore(runs[app]["Base"])
        for cfg in configs:
            run = runs[app][cfg.name]
            report = models[cfg.name].evaluate_multicore(run)
            values[cfg.name].append(
                report.normalized_to(base_report, run, runs[app]["Base"]))
    return FigureSeries("Figure 10: multicore normalized energy", apps, values)

