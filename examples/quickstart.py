"""Quickstart: partition a core for M3D and measure the gains end to end.

Walks the library's full pipeline in five steps:

1. partition the register file for an M3D stack (the paper's Table 5/6),
2. plan the whole core and derive the design frequencies (Table 11),
3. simulate one SPEC application on the 2D baseline and on M3D-Het,
4. convert the runs into energy (Figure 7's per-app view),
5. check the thermal consequences (Figure 8's per-app view).

Run with::

    python examples/quickstart.py
"""

from repro.core.structures import register_file
from repro.design import derive_frequency, resolve
from repro.partition.strategies import (
    evaluate_2d,
    port_partition,
    reduction_report,
)
from repro.power.core_power import power_model_for
from repro.tech.process import stack_m3d_iso
from repro.thermal.hotspot import peak_temperature_for
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_by_name


def main() -> None:
    # 1. Partition one structure: the 160x64b, 18-ported register file.
    geometry = register_file()
    baseline = evaluate_2d(geometry)
    partitioned = port_partition(geometry, stack_m3d_iso())
    report = reduction_report(baseline, partitioned)
    print("Step 1 - port-partitioned register file (vs 2D):")
    print(f"  access latency  -{report.latency_pct:.0f}%  (paper: -41%)")
    print(f"  access energy   -{report.energy_pct:.0f}%  (paper: -38%)")
    print(f"  footprint       -{report.footprint_pct:.0f}%  (paper: -56%)")

    # 2. Whole-core frequency derivation, for designs named by their
    #    registered design points.
    iso = derive_frequency("M3D-Iso")
    het = derive_frequency("M3D-Het")
    print("\nStep 2 - derived core frequencies:")
    print(f"  M3D-Iso {iso.ghz:.2f} GHz (limited by {iso.limiting_structure}; "
          f"paper: 3.83 GHz)")
    print(f"  M3D-Het {het.ghz:.2f} GHz (limited by {het.limiting_structure}; "
          f"paper: 3.79 GHz)")

    # 3. Simulate an application on both designs.
    profile = spec_by_name()["Povray"]
    trace = generate_trace(profile, 8000)
    base_cfg, het_cfg = resolve("Base").config, resolve("M3D-Het").config
    base_run = run_trace(base_cfg, trace)
    het_run = run_trace(het_cfg, trace)
    speedup = het_run.speedup_over(base_run)
    print(f"\nStep 3 - {profile.name} on the cycle model:")
    print(f"  Base    IPC {base_run.ipc:.2f} @ {base_cfg.ghz:.2f} GHz")
    print(f"  M3D-Het IPC {het_run.ipc:.2f} @ {het_cfg.ghz:.2f} GHz")
    print(f"  speedup {speedup:.2f}x (paper single-core average: 1.25x)")

    # 4. Energy.
    base_energy = power_model_for(base_cfg).evaluate(base_run)
    het_energy = power_model_for(het_cfg).evaluate(het_run)
    print("\nStep 4 - energy for the same work:")
    print(f"  Base    {base_energy.total * 1e6:.1f} uJ "
          f"({base_energy.average_power:.1f} W)")
    print(f"  M3D-Het {het_energy.total * 1e6:.1f} uJ "
          f"({het_energy.average_power:.1f} W)")
    print(f"  normalized energy {het_energy.normalized_to(base_energy):.2f} "
          f"(paper average: 0.61)")

    # 5. Thermals.
    base_t = peak_temperature_for(base_cfg, base_energy.average_power, profile)
    het_t = peak_temperature_for(het_cfg, het_energy.average_power, profile)
    print("\nStep 5 - peak temperature:")
    print(f"  Base    {base_t.peak_c:.1f} C")
    print(f"  M3D-Het {het_t.peak_c:.1f} C "
          f"(+{het_t.peak_c - base_t.peak_c:.1f} C; paper: ~+5 C)")


if __name__ == "__main__":
    main()
