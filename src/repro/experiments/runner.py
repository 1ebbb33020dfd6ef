"""Run every reproduction experiment and print a full paper-shaped report.

``python -m repro.experiments.runner`` regenerates every table and figure
in one sweep — the programmatic equivalent of the benchmark suite, handy
for eyeballing model-vs-paper agreement after a change.
"""

from __future__ import annotations

import argparse
import os
import time

from repro import engine
from repro.experiments import figures, tables
from repro.obs import build_manifest, metrics_path, run_record, write_manifest


def run_tables() -> None:
    """Print Tables 1-8 and 11, model vs paper."""
    tables.print_rows("Table 1: via area overhead", tables.table1())
    tables.print_rows("Table 2: via electrical characteristics", tables.table2())
    tables.print_rows("Figure 2: relative areas", [tables.figure2()])
    tables.print_rows("Table 3: bit partitioning (RF, BPT)", tables.table3())
    tables.print_rows("Table 4: word partitioning (RF, BPT)", tables.table4())
    tables.print_rows("Table 5: port partitioning (RF)", tables.table5())
    tables.print_rows("Table 6 (M3D): best iso-layer partitions",
                      tables.table6("M3D"))
    tables.print_rows("Table 6 (TSV3D): best TSV partitions",
                      tables.table6("TSV3D"))
    tables.print_rows("Table 8: hetero-layer partitions", tables.table8())
    tables.print_rows("Table 11: derived frequencies", tables.table11())


def run_figures(uops: int, multicore_uops: int) -> None:
    """Print Figures 6-10 with suite averages."""
    figures.figure6(uops).print()
    figures.figure7(uops).print()
    figures.figure8(uops).print()
    figures.figure9(multicore_uops).print()
    figures.figure10(multicore_uops).print()


def run_sweep(names: str, uops: int) -> None:
    """Evaluate registered design points end-to-end (cf. ``repro sweep``)."""
    from repro.design import evaluate_points, get_point, print_sweep_summary

    points = [get_point(name.strip())
              for name in names.split(",") if name.strip()]
    evaluations = evaluate_points(points, uops=uops)
    for evaluation in evaluations:
        evaluation.print()
    print_sweep_summary(evaluations)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--uops", type=int, default=figures.SINGLE_CORE_UOPS,
                        help="measured micro-ops per single-core run")
    parser.add_argument("--multicore-uops", type=int,
                        default=figures.MULTICORE_UOPS,
                        help="total micro-ops per multicore run")
    parser.add_argument("--tables-only", action="store_true")
    parser.add_argument("--figures-only", action="store_true")
    parser.add_argument("--sweep", default=None, metavar="POINTS",
                        help="also evaluate these registered design points "
                             "(comma-separated; see `repro list`)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for simulation sweeps "
                             "(1 = serial; results are identical either way)")
    parser.add_argument("--cache-dir", default=None,
                        help="persist simulation results here; a warm cache "
                             "skips every simulation on the next run")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a schema-versioned run manifest (JSON) "
                             "here; $REPRO_METRICS sets the default")
    args = parser.parse_args()

    engine.configure(jobs=args.jobs, cache_dir=args.cache_dir)

    started = time.time()
    with run_record() as record:
        if not args.figures_only:
            run_tables()
        if not args.tables_only:
            run_figures(args.uops, args.multicore_uops)
        if args.sweep:
            run_sweep(args.sweep, args.uops)
    stats = engine.get_engine().cache.stats
    print(f"\nTotal experiment time: {time.time() - started:.1f}s "
          f"(cache: {stats.hits} hits, {stats.misses} misses)")
    kernel = record.kernel_summary()
    if kernel["groups"]:
        print(f"kernel: {kernel['batched_specs']} specs batched across "
              f"{kernel['groups']} groups (max width {kernel['max_width']}, "
              f"{kernel['fallback_specs']} scalar fallbacks, "
              f"{kernel['singleton_specs']} singletons)")

    destination = metrics_path(args.metrics_out)
    if destination:
        command = (f"repro.experiments.runner --uops {args.uops} "
                   f"--multicore-uops {args.multicore_uops} "
                   f"--jobs {args.jobs}")
        write_manifest(build_manifest(command, record), destination)
        print(f"wrote manifest {destination}")


if __name__ == "__main__":
    main()
