"""Per-table/figure reproduction harness (used by benchmarks/ and the
`python -m repro report` command)."""

from repro.experiments import figures, tables
from repro.experiments.figures import (
    FigureSeries,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
)
from repro.experiments.tables import (
    TableRow,
    figure2,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table8,
    table11,
)

__all__ = [
    "figures",
    "tables",
    "FigureSeries",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "TableRow",
    "figure2",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table8",
    "table11",
]
