"""Iso-power multicore study: spend the M3D savings on more cores.

Reproduces the Section 6.1/7.2.2 derivation and result: the M3D-Het core
at the base 3.3 GHz has slack to drop to 0.75 V; at that operating point
its power falls so far that *eight* cores fit in the power budget of four
2D cores — and run parallel applications nearly twice as fast with less
total energy (Figures 9/10's M3D-Het-2X bars).

Run with::

    python examples/multicore_iso_power.py
"""

from repro.design import resolve
from repro.engine import get_engine
from repro.power.core_power import power_model_for
from repro.power.dvfs import (
    iso_power_core_count,
    min_voltage_at_base_frequency,
)
from repro.workloads.parallel import parallel_profiles

APPS = ("Fft", "Ocean", "Lu", "Water-Spatial", "Blackscholes")
TOTAL_UOPS = 24000


def main() -> None:
    vdd = min_voltage_at_base_frequency()
    cores = iso_power_core_count()
    print("Iso-power derivation (Section 6.1):")
    print(f"  minimum Vdd at 3.3 GHz: {vdd:.2f} V (paper: 0.75 V)")
    print(f"  cores within the 4-core 2D budget: {cores} (paper: 8)")

    configs = [
        resolve(name).config
        for name in ("Base-4C", "M3D-Het-4C", "M3D-Het-2X")
    ]
    models = {cfg.name: power_model_for(cfg) for cfg in configs}
    profiles = {p.name: p for p in parallel_profiles()}
    engine = get_engine()

    print(f"\n{'app':<15} {'design':<12} {'speedup':>8} {'energy':>8} "
          f"{'power':>8}")
    for app in APPS:
        profile = profiles[app]
        base = engine.simulate_parallel(configs[0], profile, TOTAL_UOPS)
        base_energy = models["Base"].evaluate_multicore(base)
        for cfg in configs:
            result = engine.simulate_parallel(cfg, profile, TOTAL_UOPS)
            report = models[cfg.name].evaluate_multicore(result)
            scale = base.total_uops / max(1, result.total_uops)
            print(
                f"{app:<15} {cfg.name:<12} "
                f"{result.speedup_over(base):7.2f}x "
                f"{report.total * scale / base_energy.total:7.2f} "
                f"{report.average_power:7.1f}W"
            )
        print()

    print("Reading: M3D-Het-2X runs ~2x faster than the 4-core 2D baseline "
          "(paper: 1.92x average) in a similar power envelope, with lower "
          "total energy (paper: -39%).")


if __name__ == "__main__":
    main()
