"""Hetero-layer design-space study: how bad can the top layer get?

The paper assumes a 17% top-layer slowdown (Shi et al.) and shows its
asymmetric partitioning recovers nearly all of the iso-layer gains.  This
example sweeps the penalty from 0% (a future iso-performance process) to
35% (a pessimistic low-temperature process) and reports, at each point:

* the derived core frequency with naive vs asymmetric partitioning,
* the projected speedup of a compute-bound application,

quantifying how much of the M3D opportunity the paper's techniques
preserve as manufacturing gets harder.

Run with::

    python examples/hetero_design_space.py
"""

import dataclasses

from repro.core.frequency import derive_from_plans
from repro.core.structures import core_structures
from repro.design import resolve
from repro.partition.planner import plan_core
from repro.tech.process import stack_m3d_hetero
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_by_name

PENALTIES = (0.0, 0.10, 0.17, 0.25, 0.35)


def hetero_config_at(frequency: float, name: str):
    """An M3D config pinned to a swept frequency."""
    cfg = resolve("M3D-Iso").config
    return dataclasses.replace(
        cfg, name=name, frequency=frequency, hetero=True
    )


def main() -> None:
    trace = generate_trace(spec_by_name()["Gamess"], 8000)
    base_run = run_trace(resolve("Base").config, trace)

    print("Hetero-layer design space (Gamess, compute-bound):")
    print(f"{'penalty':>8} {'naive GHz':>10} {'asym GHz':>9} "
          f"{'recovered':>10} {'speedup':>8}")

    iso_plans = plan_core(core_structures(), stack_m3d_hetero(0.0))
    f_iso = derive_from_plans("iso", iso_plans).frequency

    for penalty in PENALTIES:
        stack = stack_m3d_hetero(penalty)
        # Naive: symmetric partitioning on the slow layer; approximate the
        # frequency loss with the layer's drive loss itself.
        f_naive = f_iso * (1.0 - penalty * 0.55)
        # Our techniques: asymmetric partitioning per Section 4.
        asym_plans = plan_core(core_structures(), stack, asymmetric=True)
        f_asym = derive_from_plans("asym", asym_plans).frequency

        recovered = (
            (f_asym - f_naive) / (f_iso - f_naive) if f_iso > f_naive else 1.0
        )
        run = run_trace(
            hetero_config_at(f_asym, f"het{penalty:.2f}"), trace
        )
        print(
            f"{penalty:7.0%} {f_naive / 1e9:10.2f} {f_asym / 1e9:9.2f} "
            f"{recovered:9.0%} {run.speedup_over(base_run):7.2f}x"
        )

    print(
        "\nReading: 'recovered' is the fraction of the naive design's "
        "frequency loss that the Section 4 asymmetric partitioning wins "
        "back; the paper's point is that it stays high even for slow top "
        "layers."
    )


if __name__ == "__main__":
    main()
