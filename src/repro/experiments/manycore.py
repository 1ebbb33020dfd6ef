"""Heterogeneous manycore scenarios: the tile-grid figure family.

The ROADMAP's manycore scenario class, end-to-end: a
:class:`~repro.design.grid.TileGrid` resolves to per-tile configs plus a
:class:`~repro.uarch.noc.MeshNoc` (:func:`repro.design.grid.resolve_manycore`),
every parallel application runs across the tiles through the batched
kernel (:func:`repro.uarch.multicore.evaluate_tiles`, with the full OOO
oracle as the ``REPRO_KERNEL=0`` fallback), per-tile energy comes from
each tile's own power model, and one chip-level thermal solve
(:func:`repro.thermal.hotspot.manycore_temperatures`) reads every tile's
peak temperature off the shared splu-factorized grid.

``SCENARIOS`` registers ready-made mixed grids — ``repro manycore
mixed-4x4`` runs the golden one — and any JSON grid file works the same
way (``repro manycore path/to/grid.json``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.design.grid import ResolvedManycore, TileGrid, resolve_manycore
from repro.experiments.figures import MULTICORE_UOPS
from repro.thermal.hotspot import manycore_grid_resolution, manycore_temperatures
from repro.uarch.multicore import (
    MulticoreResult,
    evaluate_tiles,
    run_parallel_tiles,
)
from repro.workloads.parallel import parallel_profiles
from repro.workloads.profiles import first_apps

#: Thermal grid base resolution (per-core); scaled to the mesh by
#: :func:`repro.thermal.hotspot.manycore_grid_resolution`.
MANYCORE_BASE_GRID: int = 12

#: Ready-made scenarios (also the bench/golden workloads).
_SCENARIO_SPECS = (
    TileGrid(
        name="mixed-2x2",
        rows=2, cols=2,
        tiles=("Base", "M3D-Het30", "M3D-Het50", "M3D-Het70"),
        injection_rate=0.2,
        description="smallest mixed grid: one 2D tile, three hetero-M3D "
                    "sensitivity tiles (the bench quick scenario)",
    ),
    TileGrid(
        name="mixed-4x4",
        rows=4, cols=4,
        tiles=(
            "M3D-Het30", "M3D-Het50", "M3D-Het70", "Base",
            "M3D-Het50", "M3D-Het30", "Base", "M3D-Het70",
            "M3D-Het70", "Base", "M3D-Het30", "M3D-Het50",
            "Base", "M3D-Het70", "M3D-Het50", "M3D-Het30",
        ),
        injection_rate=0.25,
        description="the golden scenario: a 4x4 latin-square mix of the "
                    "M3D-Het30/50/70 extension tiles and 2D Base tiles",
    ),
)

SCENARIOS: Dict[str, TileGrid] = {grid.name: grid for grid in _SCENARIO_SPECS}

#: The scenario the golden artifact pins.
GOLDEN_SCENARIO: str = "mixed-4x4"

#: Parallel applications the golden/bench scenarios run (keeps the
#: artifact rebuild fast; ``apps=None`` runs all 15).
GOLDEN_SCENARIO_APPS: int = 3


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> TileGrid:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown manycore scenario {name!r}; "
            f"known scenarios: {', '.join(scenario_names())}"
        ) from None


@dataclasses.dataclass(frozen=True)
class ManycoreReport:
    """One tile-grid scenario evaluated over the parallel suite."""

    resolved: ResolvedManycore
    apps: List[str]
    results: Dict[str, MulticoreResult]
    #: app -> per-tile energy (J) of that tile's own run.
    tile_energy: Dict[str, List[float]]
    #: app -> per-tile peak temperature (C) from the chip-level solve.
    tile_peak_c: Dict[str, List[float]]
    #: app -> chip peak temperature (C).
    peak_c: Dict[str, float]
    thermal_grid: int

    @property
    def grid(self) -> TileGrid:
        return self.resolved.grid

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload (consumed by the golden snapshot layer).

        Temperatures live under per-app ``thermal`` blocks so the golden
        comparator applies the sparse-solver tolerance to exactly them.
        """
        noc = self.resolved.noc
        grid = self.grid
        tiles = [
            {
                "index": index,
                "name": design.point.name,
                "stack": design.point.stack,
                "ghz": design.config.frequency / 1e9,
            }
            for index, design in enumerate(self.resolved.designs)
        ]
        per_app: Dict[str, object] = {}
        for app in self.apps:
            result = self.results[app]
            per_app[app] = {
                "cycles": result.cycles,
                "reference_ghz": result.frequency / 1e9,
                "barrier_wait_cycles": result.barrier_wait_cycles,
                "coherence_transfers": result.coherence_transfers,
                "dropped_phases": result.dropped_phases,
                "total_uops": result.total_uops,
                "tile_energy_nj": [
                    energy * 1e9 for energy in self.tile_energy[app]
                ],
                "thermal": {
                    "peak_c": self.peak_c[app],
                    "tiles": [
                        {"tile": index, "peak_c": peak}
                        for index, peak in enumerate(self.tile_peak_c[app])
                    ],
                },
            }
        return {
            "spec": grid.to_dict(),
            "noc": {
                "topology": "mesh",
                "rows": noc.rows,
                "cols": noc.cols,
                "folded_tiles": noc.folded_tiles,
                "injection_rate": noc.injection_rate,
                "average_hops": noc.average_hops,
                "average_latency": noc.average_latency,
                "contention_cycles": noc.contention_cycles,
                "link_energy_per_flit_nj": noc.link_energy_per_flit() * 1e9,
            },
            "tiles": tiles,
            "apps": list(self.apps),
            "per_app": per_app,
            "thermal_grid": self.thermal_grid,
        }

    def print(self) -> None:
        noc = self.resolved.noc
        grid = self.grid
        print(f"\n=== manycore {grid.name}: {grid.rows}x{grid.cols} mesh ===")
        print(
            f"NoC: avg hops {noc.average_hops:.2f}, latency "
            f"{noc.average_latency} cyc (contention "
            f"{noc.contention_cycles:.2f} cyc at injection "
            f"{noc.injection_rate:g}), folded={noc.folded_tiles}"
        )
        names = [design.point.name for design in self.resolved.designs]
        for row in range(grid.rows):
            tiles = names[row * grid.cols:(row + 1) * grid.cols]
            print("  " + "  ".join(name.ljust(10) for name in tiles))
        header = "app".ljust(14) + "cycles".rjust(10) + "wait".rjust(9) \
            + "energy(nJ)".rjust(12) + "peak C".rjust(9) + "hot tile".rjust(10)
        print(header)
        for app in self.apps:
            result = self.results[app]
            energy = sum(self.tile_energy[app]) * 1e9
            peaks = self.tile_peak_c[app]
            hot = max(range(len(peaks)), key=peaks.__getitem__)
            print(
                app.ljust(14)
                + f"{result.cycles:10d}"
                + f"{result.barrier_wait_cycles:9d}"
                + f"{energy:12.1f}"
                + f"{self.peak_c[app]:9.2f}"
                + f"  t{hot} ({self.resolved.designs[hot].point.name})"
            )


def evaluate_manycore(
    grid: TileGrid,
    total_uops: int = MULTICORE_UOPS,
    seed: int = 1234,
    base_grid: int = MANYCORE_BASE_GRID,
    apps: Optional[int] = None,
) -> ManycoreReport:
    """Evaluate one tile-grid scenario over the parallel suite.

    ``apps`` limits the suite to its first N applications (like
    :func:`repro.design.sweep.evaluate_points`); ``base_grid`` is the
    per-core thermal resolution before mesh scaling.
    """
    from repro.uarch.kernel import kernel_enabled

    resolved = resolve_manycore(grid)
    tiles = resolved.tiles
    profiles = first_apps(parallel_profiles(), apps)
    thermal_grid = manycore_grid_resolution(base_grid, grid.rows, grid.cols)
    stacks = [design.point.stack for design in resolved.designs]
    models = [design.power_model() for design in resolved.designs]

    names: List[str] = []
    results: Dict[str, MulticoreResult] = {}
    tile_energy: Dict[str, List[float]] = {}
    tile_peak_c: Dict[str, List[float]] = {}
    peak_c: Dict[str, float] = {}
    for profile in profiles:
        runner = evaluate_tiles if kernel_enabled() else run_parallel_tiles
        result = runner(
            tiles, profile, total_uops, seed=seed, noc=resolved.noc,
            name=grid.name,
        )
        reports = [
            model.evaluate(core_result)
            for model, core_result in zip(models, result.per_core)
        ]
        powers = [report.average_power for report in reports]
        solution, peaks = manycore_temperatures(
            stacks, powers, profile, grid=thermal_grid, name=grid.name,
        )
        names.append(profile.name)
        results[profile.name] = result
        tile_energy[profile.name] = [report.total for report in reports]
        tile_peak_c[profile.name] = peaks
        peak_c[profile.name] = solution.peak_c
    return ManycoreReport(
        resolved=resolved,
        apps=names,
        results=results,
        tile_energy=tile_energy,
        tile_peak_c=tile_peak_c,
        peak_c=peak_c,
        thermal_grid=thermal_grid,
    )


__all__ = [
    "GOLDEN_SCENARIO",
    "GOLDEN_SCENARIO_APPS",
    "MANYCORE_BASE_GRID",
    "ManycoreReport",
    "SCENARIOS",
    "evaluate_manycore",
    "get_scenario",
    "scenario_names",
]
