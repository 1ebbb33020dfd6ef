"""Reproduction entry points for the paper's figures (6-10).

Each figure projects one lineup evaluation by
:func:`repro.design.sweep.evaluate_points` into the paper's bar-chart
shape plus the suite average the text quotes: figures 6-8 the
``PAPER_SINGLE_CORE`` lineup's speedups, equal-work energies and peak
temperatures, figures 9-10 the ``PAPER_MULTICORE`` lineup's speedups
and energies.  Series are keyed by config name (``"Base"`` for the
4-core Base) in lineup order.

The latest two evaluations are memoized on the engine, the lineup and
the sizes, so figures 6/7/8 share one evaluation and figures 9/10
another; ``engine.configure()`` installs a new engine and so forces a
new evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.design.registry import PAPER_MULTICORE, PAPER_SINGLE_CORE
from repro.design.sweep import evaluate_points
from repro.engine.sweep import get_engine
from repro.lru import LruMemo

#: Default measured trace length per application (single core).
SINGLE_CORE_UOPS: int = 8000

#: Default total work per parallel application (all cores together).
MULTICORE_UOPS: int = 24000

#: The three designs whose thermals Figure 8 compares.
FIGURE8_DESIGNS = ("Base", "TSV3D", "M3D-Het")

#: The latest lineup evaluations, keyed on ``(engine, lineup, sizes)``:
#: room for the single-core and the multicore lineup of one report.
_EVALUATIONS = LruMemo(cap=2)


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


def _projection(name: str, lineup: Sequence[str], metric: str,
                designs: Sequence[str] = (), **sizes: int) -> FigureSeries:
    """One per-app ``metric`` series per design of ``lineup`` (or of
    ``designs`` only), by config name, from the lineup's evaluation on
    the current engine."""
    engine = get_engine()
    key = (engine, lineup, tuple(sizes.items()))
    evaluations = _EVALUATIONS.get(
        key, lambda: evaluate_points(lineup, engine=engine, **sizes))
    by_config = {ev.design.config.name: ev for ev in evaluations}
    return FigureSeries(name, list(evaluations[0].apps), {
        config: list(getattr(by_config[config], metric))
        for config in designs or by_config
    })


def figure6(uops: int = SINGLE_CORE_UOPS, seed: int = 1234,
            grid: int = 12) -> FigureSeries:
    """Figure 6: single-core speedup over Base, 21 SPEC2006 apps."""
    return _projection("Figure 6: single-core speedup", PAPER_SINGLE_CORE,
                       "speedup", uops=uops, seed=seed, grid=grid)


def figure7(uops: int = SINGLE_CORE_UOPS, seed: int = 1234,
            grid: int = 12) -> FigureSeries:
    """Figure 7: single-core energy normalised to Base at equal work."""
    return _projection("Figure 7: single-core normalized energy",
                       PAPER_SINGLE_CORE, "energy",
                       uops=uops, seed=seed, grid=grid)


def figure8(uops: int = SINGLE_CORE_UOPS, seed: int = 1234,
            grid: int = 12) -> FigureSeries:
    """Figure 8: peak temperature for Base, TSV3D and M3D-Het.

    Each design's per-app core power is its own run's average power
    (energy / time) under its own power model.
    """
    return _projection("Figure 8: peak temperature (C)", PAPER_SINGLE_CORE,
                       "peak_c", FIGURE8_DESIGNS,
                       uops=uops, seed=seed, grid=grid)


def figure9(total_uops: int = MULTICORE_UOPS, seed: int = 1234,
            grid: int = 12) -> FigureSeries:
    """Figure 9: multicore speedup over the 4-core Base."""
    return _projection("Figure 9: multicore speedup", PAPER_MULTICORE,
                       "speedup", multicore_uops=total_uops, seed=seed,
                       grid=grid)


def figure10(total_uops: int = MULTICORE_UOPS, seed: int = 1234,
             grid: int = 12) -> FigureSeries:
    """Figure 10: multicore energy normalised to the 4-core Base."""
    return _projection("Figure 10: multicore normalized energy",
                       PAPER_MULTICORE, "energy",
                       multicore_uops=total_uops, seed=seed, grid=grid)
