"""Every paper table and figure, declared once in report order.

:data:`ARTIFACTS` maps each name (``table1`` ... ``figure10``) to a
builder taking :class:`BuildParams`; what it builds prints itself
(``print()``) and gives its golden payload (``as_dict()``).
``python -m repro report`` prints them all (:func:`run_tables`, then
:func:`run_figures`), ``repro table N`` / ``repro figure N`` prints one,
and :mod:`repro.golden.artifacts` snapshots their payloads.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro.experiments import figures, tables
from repro.experiments.tables import Table, TableVariants


@dataclasses.dataclass(frozen=True)
class BuildParams:
    """Sweep sizes a simulated artifact is built at."""

    uops: int = 8000
    multicore_uops: int = 24000
    seed: int = 1234
    grid: int = 12

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "BuildParams":
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


Builder = Callable[[BuildParams], object]

#: The report's first half: the analytic tables and Figure 2, which no
#: sweep size changes.
STATIC: Dict[str, Builder] = {
    "table1": lambda p: Table("Table 1: via area overhead", tables.table1()),
    "table2": lambda p: Table("Table 2: via electrical characteristics",
                              tables.table2()),
    "figure2": lambda p: Table("Figure 2: relative areas", [tables.figure2()]),
    "table3": lambda p: Table("Table 3: bit partitioning (RF, BPT)",
                              tables.table3()),
    "table4": lambda p: Table("Table 4: word partitioning (RF, BPT)",
                              tables.table4()),
    "table5": lambda p: Table("Table 5: port partitioning (RF)",
                              tables.table5()),
    "table6": lambda p: TableVariants({
        "M3D": Table("Table 6 (M3D): best iso-layer partitions",
                     tables.table6("M3D")),
        "TSV3D": Table("Table 6 (TSV3D): best TSV partitions",
                       tables.table6("TSV3D")),
    }),
    "table8": lambda p: Table("Table 8: hetero-layer partitions",
                              tables.table8()),
    "table11": lambda p: Table("Table 11: derived frequencies",
                               tables.table11()),
}

#: The report's second half: the simulated figures, whose titles are
#: their :class:`~repro.experiments.figures.FigureSeries` names.
SIMULATED: Dict[str, Builder] = {
    "figure6": lambda p: figures.figure6(p.uops, p.seed),
    "figure7": lambda p: figures.figure7(p.uops, p.seed),
    "figure8": lambda p: figures.figure8(p.uops, p.seed, p.grid),
    "figure9": lambda p: figures.figure9(p.multicore_uops, p.seed),
    "figure10": lambda p: figures.figure10(p.multicore_uops, p.seed),
}

#: Every paper table and figure, in report order.
ARTIFACTS: Dict[str, Builder] = {**STATIC, **SIMULATED}


def run_tables() -> None:
    """Print Tables 1-8 and 11 and Figure 2, model vs paper."""
    for build in STATIC.values():
        build(BuildParams()).print()


def run_figures(uops: int, multicore_uops: int) -> None:
    """Print Figures 6-10 with suite averages."""
    params = BuildParams(uops=uops, multicore_uops=multicore_uops)
    for build in SIMULATED.values():
        build(params).print()
