"""Iso-power multicore study: spend the M3D savings on more cores.

Reproduces the Section 6.1/7.2.2 derivation and result: the M3D-Het core
at the base 3.3 GHz has slack to drop to 0.75 V; at that operating point
its power falls so far that *eight* cores fit in the power budget of four
2D cores — and run parallel applications nearly twice as fast with less
total energy (Figures 9/10's M3D-Het-2X bars).

Run with::

    python examples/multicore_iso_power.py
"""

from repro.design import evaluate_points
from repro.power.dvfs import (
    iso_power_core_count,
    min_voltage_at_base_frequency,
)

DESIGNS = ("Base-4C", "M3D-Het-4C", "M3D-Het-2X")
APPS = 5
TOTAL_UOPS = 24000


def main() -> None:
    vdd = min_voltage_at_base_frequency()
    cores = iso_power_core_count()
    print("Iso-power derivation (Section 6.1):")
    print(f"  minimum Vdd at 3.3 GHz: {vdd:.2f} V (paper: 0.75 V)")
    print(f"  cores within the 4-core 2D budget: {cores} (paper: 8)")

    # Speedup and equal-work energy against the 4-core Base, and peak
    # temperature, for the first APPS parallel applications.
    evaluations = evaluate_points(DESIGNS, multicore_uops=TOTAL_UOPS,
                                  apps=APPS)
    print(f"\n{'app':<15} {'design':<12} {'speedup':>8} {'energy':>8} "
          f"{'peak C':>8}")
    for i, app in enumerate(evaluations[0].apps):
        for ev in evaluations:
            print(f"{app:<15} {ev.name:<12} {ev.speedup[i]:7.2f}x "
                  f"{ev.energy[i]:8.2f} {ev.peak_c[i]:8.1f}")
        print()

    print("Reading: M3D-Het-2X runs ~2x faster than the 4-core 2D baseline "
          "(paper: 1.92x average) in a similar power envelope, with lower "
          "total energy (paper: -39%).")


if __name__ == "__main__":
    main()
