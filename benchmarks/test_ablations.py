"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's tables: sweeps over the top-layer slowdown,
the asymmetric split ratio, TSV diameter, ILD thickness and the 3D
critical-path cycle savings — quantifying how much each modelling choice
contributes to the headline results.
"""

import dataclasses

import pytest

from repro.core.structures import register_file, structures_by_name
from repro.design import resolve
from repro.partition.planner import plan_structure
from repro.partition.strategies import evaluate_2d, port_partition, reduction_report
from repro.tech.constants import TSV_KOZ_RING_FRACTION
from repro.tech.process import stack_m3d_hetero
from repro.tech.via import Via
from repro.thermal.floorplan import floorplan_folded
from repro.thermal.grid import solve_floorplans
from repro.thermal.stack import (
    K_ILD,
    K_METAL,
    K_SILICON,
    K_TIM,
    ThermalLayer,
    ThermalStack,
)
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_by_name


@pytest.mark.table
def test_ablation_top_layer_slowdown(benchmark):
    """Sweep the top-layer penalty 0-30%: the asymmetric partitioning keeps
    the RF's latency reduction nearly flat (the paper's central claim)."""

    def sweep():
        gains = {}
        for penalty in (0.0, 0.10, 0.17, 0.30):
            plan = plan_structure(
                register_file(), stack_m3d_hetero(penalty), asymmetric=True
            )
            gains[penalty] = plan.best_report.latency_pct
        return gains

    gains = benchmark(sweep)
    print(f"\nRF latency reduction vs top-layer penalty: {gains}")
    assert gains[0.0] >= gains[0.30] - 1e-9
    # Even a 30% penalty costs only a few points — critical paths stay below.
    assert gains[0.30] > gains[0.0] - 10.0


@pytest.mark.table
def test_ablation_port_split(benchmark):
    """Sweep the RF port split: balance beats extremes (Section 4.2.1's
    10-below/8-above observation)."""
    geometry = register_file()
    hetero = stack_m3d_hetero()
    base = evaluate_2d(geometry)

    def sweep():
        results = {}
        for bottom_ports in (9, 10, 12, 15):
            report = reduction_report(
                base,
                port_partition(
                    geometry, hetero, bottom_ports=bottom_ports,
                    top_width_mult=2.0,
                ),
            )
            results[bottom_ports] = (report.latency_pct, report.footprint_pct)
        return results

    results = benchmark(sweep)
    print(f"\nRF (latency%, footprint%) vs bottom ports: {results}")
    # A heavily lopsided split wastes footprint vs a balanced one.
    assert results[15][1] < max(results[9][1], results[10][1])


@pytest.mark.table
def test_ablation_tsv_diameter(benchmark):
    """Sweep TSV diameter: partitioning gains erode as vias fatten."""
    geometry = structures_by_name()["DL1"]

    def sweep():
        from repro.partition.strategies import bit_partition
        from repro.tech.process import StackSpec, LayerSpec

        base = evaluate_2d(geometry)
        gains = {}
        for diameter_um in (0.05, 0.5, 1.3, 2.6):
            via = Via(
                name=f"TSV({diameter_um}um)",
                diameter=diameter_um * 1e-6,
                height=13e-6,
                capacitance=2.5e-15 * diameter_um / 1.3,
                resistance=0.1,
                koz_ring=TSV_KOZ_RING_FRACTION * diameter_um * 1e-6,
                square=False,
            )
            stack = StackSpec(
                name="sweep",
                layers=[LayerSpec("bottom"), LayerSpec("top")],
                via=via,
            )
            report = reduction_report(base, bit_partition(geometry, stack))
            gains[diameter_um] = report.latency_pct
        return gains

    gains = benchmark(sweep)
    print(f"\nDL1 BP latency reduction vs via diameter (um): {gains}")
    assert gains[0.05] > gains[2.6]


@pytest.mark.figure
def test_ablation_ild_thickness(benchmark):
    """Sweep the inter-layer dielectric thickness: M3D's thermal advantage
    is exactly its thin ILD."""

    def sweep():
        peaks = {}
        for ild_um in (0.1, 1.0, 5.0, 20.0):
            stack = ThermalStack(
                name=f"ild{ild_um}",
                layers=[
                    ThermalLayer("bulk", 100e-6, K_SILICON),
                    ThermalLayer("bottom", 2e-6, K_SILICON, power_layer=0),
                    ThermalLayer("metal", 1e-6, K_METAL),
                    ThermalLayer("ild", ild_um * 1e-6, K_ILD),
                    ThermalLayer("top", 2e-6, K_SILICON, power_layer=1),
                    ThermalLayer("top_metal", 12e-6, K_METAL),
                    ThermalLayer("tim", 50e-6, K_TIM),
                ],
            )
            plans = floorplan_folded(6.4)
            peaks[ild_um] = solve_floorplans(stack, plans, grid=8).peak_c
        return peaks

    peaks = benchmark(sweep)
    print(f"\nPeak temperature (C) vs ILD thickness (um): {peaks}")
    assert peaks[20.0] > peaks[0.1] + 5.0
    assert peaks[0.1] < peaks[1.0] <= peaks[5.0] <= peaks[20.0]


@pytest.mark.figure
def test_ablation_path_savings(benchmark):
    """Disable the 3D load-to-use / branch-path savings: how much of the
    M3D speedup is IPC vs frequency?"""
    trace = generate_trace(spec_by_name()["Povray"], 6000)

    def sweep():
        het = resolve("M3D-Het").config
        base = run_trace(resolve("Base").config, trace)
        full = run_trace(het, trace)
        frequency_only = dataclasses.replace(
            het,
            load_to_use_cycles=4,
            branch_mispredict_cycles=14,
            name="freq-only",
        )
        partial = run_trace(frequency_only, trace)
        return (
            full.speedup_over(base),
            partial.speedup_over(base),
        )

    with_paths, without_paths = benchmark(sweep)
    print(
        f"\nM3D-Het speedup with path savings {with_paths:.3f}, "
        f"frequency-only {without_paths:.3f}"
    )
    # The shorter load-to-use and branch paths contribute real IPC on top
    # of the frequency gain (Section 7.1.1's two-factor explanation).
    assert with_paths > without_paths
