"""Reproduction entry points for the paper's tables (1-8, 11).

Each function runs the relevant models and returns structured rows, which
:meth:`Table.print` renders next to the paper's published values
(:mod:`repro.core.reference`), so every benchmark and EXPERIMENTS.md entry
comes from the same code path.  :mod:`repro.experiments.runner` titles
each table (:class:`Table`) in report order.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.core import reference
from repro.core.structures import core_structures, structures_by_name
from repro.partition.planner import plan_core
from repro.partition.strategies import (
    bit_partition,
    evaluate_2d,
    port_partition,
    reduction_report,
    word_partition,
)
from repro.tech.process import stack_m3d_hetero, stack_m3d_iso, stack_tsv3d
from repro.tech.via import figure2_relative_areas, table1_area_overheads


@dataclasses.dataclass(frozen=True)
class TableRow:
    """One model-vs-paper row of a reproduction table."""

    key: str
    model: Dict[str, float]
    paper: Dict[str, float]

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready view (consumed by the golden snapshot layer)."""
        return {"model": dict(self.model), "paper": dict(self.paper)}


def _cells(values: Dict[str, object]) -> str:
    """One side of a row.  Numbers take an 8-character field, so a row's
    model and paper lines line up."""
    cells = []
    for key, value in values.items():
        if isinstance(value, float):
            cells.append(f"{key}={value:8.2f}")
        elif isinstance(value, int) and not isinstance(value, bool):
            cells.append(f"{key}={value:8d}")
        else:
            cells.append(f"{key}={value}")
    return "  ".join(cells)


@dataclasses.dataclass(frozen=True)
class Table:
    """A titled reproduction table, as ``repro report`` prints it."""

    title: str
    rows: List[TableRow]

    def print(self) -> None:
        """Render the table, each row's model values above the paper's."""
        print(f"\n=== {self.title} ===")
        for row in self.rows:
            print(f"{row.key:<14} model: {_cells(row.model)}")
            print(f"{'':<14} paper: {_cells(row.paper)}")

    def as_dict(self) -> Dict[str, object]:
        """The golden payload: the rows keyed by name."""
        return {"rows": {row.key: row.as_dict() for row in self.rows}}


@dataclasses.dataclass(frozen=True)
class TableVariants:
    """One table per stack (Table 6), printed in turn; the golden payload
    keys each variant's rows by stack."""

    tables: Dict[str, Table]

    def print(self) -> None:
        for table in self.tables.values():
            table.print()

    def as_dict(self) -> Dict[str, object]:
        return {"variants": {
            stack: table.as_dict()["rows"]
            for stack, table in self.tables.items()
        }}


def table1() -> List[TableRow]:
    """Table 1: via area overhead vs a 32b adder and 32 SRAM cells."""
    overheads = table1_area_overheads()
    paper = {
        "MIV": {"adder32": 0.0001, "sram32": 0.001},
        "TSV(1.3um)": {"adder32": 0.080, "sram32": 2.717},
        "TSV(5um)": {"adder32": 1.287, "sram32": 43.478},
    }
    return [
        TableRow(name, overheads[name], paper[name])
        for name in ("MIV", "TSV(1.3um)", "TSV(5um)")
    ]


def table2() -> List[TableRow]:
    """Table 2: via dimensions and electrical characteristics."""
    from repro.tech.via import make_miv, make_tsv_aggressive, make_tsv_research

    rows = []
    paper = {
        "MIV": {"diameter_um": 0.05, "height_um": 0.31, "cap_fF": 0.1, "res_ohm": 5.5},
        "TSV(1.3um)": {"diameter_um": 1.3, "height_um": 13, "cap_fF": 2.5, "res_ohm": 0.1},
        "TSV(5um)": {"diameter_um": 5, "height_um": 25, "cap_fF": 37, "res_ohm": 0.02},
    }
    for via in (make_miv(), make_tsv_aggressive(), make_tsv_research()):
        rows.append(
            TableRow(
                via.name,
                {
                    "diameter_um": via.diameter * 1e6,
                    "height_um": via.height * 1e6,
                    "cap_fF": via.capacitance * 1e15,
                    "res_ohm": via.resistance,
                },
                paper[via.name],
            )
        )
    return rows


def figure2() -> TableRow:
    """Figure 2: areas relative to an FO1 inverter."""
    model = figure2_relative_areas()
    paper = {"INV_FO1": 1.0, "MIV": 0.07, "SRAM_bitcell": 2.0, "TSV(1.3um)": 37.0}
    return TableRow("figure2", model, paper)


def _strategy_table(strategy, paper_table, structures=("RF", "BPT")) -> List[TableRow]:
    """Shared driver for Tables 3/4/5 (one strategy, RF + BPT, both stacks)."""
    geometries = structures_by_name()
    rows: List[TableRow] = []
    for name in structures:
        geometry = geometries[name]
        base = evaluate_2d(geometry)
        for stack, stack_key in ((stack_m3d_iso(), "M3D"), (stack_tsv3d(), "TSV3D")):
            try:
                report = reduction_report(base, strategy(geometry, stack))
            except ValueError:
                continue
            paper_row = paper_table.get(name, {}).get(stack_key)
            if paper_row is None:
                continue
            rows.append(
                TableRow(
                    f"{name}/{stack_key}",
                    {
                        "latency": report.latency_pct,
                        "energy": report.energy_pct,
                        "footprint": report.footprint_pct,
                    },
                    {
                        "latency": paper_row.latency,
                        "energy": paper_row.energy,
                        "footprint": paper_row.footprint,
                    },
                )
            )
    return rows


def table3() -> List[TableRow]:
    """Table 3: bit partitioning of the RF and BPT."""
    return _strategy_table(bit_partition, reference.TABLE3_BP)


def table4() -> List[TableRow]:
    """Table 4: word partitioning of the RF and BPT."""
    return _strategy_table(word_partition, reference.TABLE4_WP)


def table5() -> List[TableRow]:
    """Table 5: port partitioning of the RF (impossible for the BPT)."""
    return _strategy_table(port_partition, reference.TABLE5_PP, structures=("RF",))


def table6(stack: str = "M3D") -> List[TableRow]:
    """Table 6: best iso-layer partition per structure (M3D or TSV3D)."""
    the_stack = stack_m3d_iso() if stack == "M3D" else stack_tsv3d()
    paper = reference.TABLE6_M3D if stack == "M3D" else reference.TABLE6_TSV
    rows = []
    for plan in plan_core(core_structures(), the_stack):
        name = plan.geometry.name
        rows.append(
            TableRow(
                name,
                {
                    "strategy": plan.strategy,
                    "latency": plan.best_report.latency_pct,
                    "energy": plan.best_report.energy_pct,
                    "footprint": plan.best_report.footprint_pct,
                },
                {
                    "strategy": paper[name].strategy,
                    "latency": paper[name].latency,
                    "energy": paper[name].energy,
                    "footprint": paper[name].footprint,
                },
            )
        )
    return rows


def table8() -> List[TableRow]:
    """Table 8: hetero-layer (asymmetric) partition per structure."""
    rows = []
    plans = plan_core(core_structures(), stack_m3d_hetero(), asymmetric=True)
    for plan in plans:
        name = plan.geometry.name
        paper = reference.TABLE8_HETERO[name]
        rows.append(
            TableRow(
                name,
                {
                    "strategy": plan.strategy,
                    "latency": plan.best_report.latency_pct,
                    "energy": plan.best_report.energy_pct,
                    "footprint": plan.best_report.footprint_pct,
                },
                {
                    "strategy": paper.strategy,
                    "latency": paper.latency,
                    "energy": paper.energy,
                    "footprint": paper.footprint,
                },
            )
        )
    return rows


def table11() -> List[TableRow]:
    """Table 11: derived core frequencies (GHz), model vs paper."""
    from repro.design.registry import TABLE11_ORDER
    from repro.design.resolve import derive_frequency

    return [
        TableRow(
            name,
            {"ghz": derive_frequency(name).ghz},
            {"ghz": reference.TABLE11_FREQUENCIES[name]},
        )
        for name in TABLE11_ORDER
    ]
