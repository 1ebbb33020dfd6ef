"""The full paper-shaped report: every table and figure, model vs paper.

``python -m repro report`` prints both halves in order; the benchmarks
time the same two functions.
"""

from __future__ import annotations

from repro.experiments import figures, tables


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
