"""repro — a reproduction of "Designing Vertical Processors in Monolithic 3D"
(Gopireddy & Torrellas, ISCA 2019).

The library builds every system the paper's evaluation rests on:

* :mod:`repro.tech` — transistor/via/wire technology models (MIV vs TSV),
* :mod:`repro.sram` — an analytical SRAM/CAM model (the CACTI substitute),
* :mod:`repro.partition` — the paper's contribution: BP/WP/PP partitioning
  and the hetero-layer asymmetric variants,
* :mod:`repro.logic` — gate-level stage models and slack-based placement,
* :mod:`repro.core` — structure inventory, frequency derivation, Table 11,
* :mod:`repro.design` — the design-point registry, the one way to name a
  design: ``resolve("M3D-Het")`` derives its clock and ``CoreConfig``,
* :mod:`repro.uarch` — a trace-driven OOO core + multicore simulator,
* :mod:`repro.workloads` — SPEC2006 / SPLASH2 / PARSEC synthetic traces,
* :mod:`repro.power` — the McPAT-substitute energy model,
* :mod:`repro.thermal` — the HotSpot-substitute grid solver,
* :mod:`repro.experiments` — one entry point per paper table and figure.

Quickstart (each design named by its registered point)::

    from repro.design import resolve
    from repro.uarch.ooo import run_trace
    from repro.workloads.spec import spec_by_name
    from repro.workloads.generator import generate_trace

    trace = generate_trace(spec_by_name()["Povray"], 8000)
    base = run_trace(resolve("Base").config, trace)
    m3d = run_trace(resolve("M3D-Het").config, trace)
    print(f"M3D-Het speedup: {m3d.speedup_over(base):.2f}x")
"""

__version__ = "1.0.0"

__all__ = [
    "tech",
    "sram",
    "partition",
    "logic",
    "core",
    "uarch",
    "workloads",
    "power",
    "thermal",
    "experiments",
]
