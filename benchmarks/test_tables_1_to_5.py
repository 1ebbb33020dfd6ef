"""Benchmarks regenerating Tables 1-5 and Figure 2 (via + single-structure
partitioning studies)."""

import pytest

from repro.experiments.runner import ARTIFACTS, BuildParams


@pytest.mark.table
def test_table1_via_area(benchmark):
    table = benchmark(ARTIFACTS["table1"], BuildParams())
    table.print()
    by_key = {row.key: row for row in table.rows}
    # MIV negligible; 1.3um TSV ~8% of an adder; 5um TSV dwarfs it.
    assert by_key["MIV"].model["adder32"] < 0.001
    assert by_key["TSV(1.3um)"].model["adder32"] == pytest.approx(0.08, rel=0.2)
    assert by_key["TSV(5um)"].model["adder32"] > 1.0
    assert by_key["TSV(1.3um)"].model["sram32"] > 2.0


@pytest.mark.table
def test_table2_via_electrical(benchmark):
    table = benchmark(ARTIFACTS["table2"], BuildParams())
    table.print()
    for row in table.rows:
        assert row.model["diameter_um"] == pytest.approx(
            row.paper["diameter_um"], rel=0.01
        )
        assert row.model["cap_fF"] == pytest.approx(row.paper["cap_fF"], rel=0.01)


@pytest.mark.figure
def test_figure2_relative_area(benchmark):
    table = benchmark(ARTIFACTS["figure2"], BuildParams())
    table.print()
    (row,) = table.rows
    assert row.model["MIV"] < 0.1
    assert row.model["SRAM_bitcell"] == pytest.approx(2.0, rel=0.1)
    assert row.model["TSV(1.3um)"] == pytest.approx(37.0, rel=0.2)


@pytest.mark.table
def test_table3_bit_partitioning(benchmark):
    table = benchmark(ARTIFACTS["table3"], BuildParams())
    table.print()
    by_key = {row.key: row for row in table.rows}
    # M3D beats TSV3D on both structures; RF gains exceed BPT gains.
    assert by_key["RF/M3D"].model["latency"] > by_key["RF/TSV3D"].model["latency"]
    assert by_key["BPT/M3D"].model["latency"] > by_key["BPT/TSV3D"].model["latency"]
    assert by_key["RF/M3D"].model["latency"] > 5.0


@pytest.mark.table
def test_table4_word_partitioning(benchmark):
    table = benchmark(ARTIFACTS["table4"], BuildParams())
    table.print()
    by_key = {row.key: row for row in table.rows}
    assert by_key["RF/M3D"].model["latency"] > by_key["RF/TSV3D"].model["latency"]
    # WP's hallmark: strong energy savings (only one layer's bitlines swing).
    assert by_key["BPT/M3D"].model["energy"] > 15.0


@pytest.mark.table
def test_table5_port_partitioning(benchmark):
    table = benchmark(ARTIFACTS["table5"], BuildParams())
    table.print()
    by_key = {row.key: row for row in table.rows}
    # M3D PP is the best RF design; TSV PP is catastrophic.
    assert by_key["RF/M3D"].model["latency"] > 25.0
    assert by_key["RF/M3D"].model["footprint"] > 40.0
    assert by_key["RF/TSV3D"].model["footprint"] < -50.0
    assert by_key["RF/TSV3D"].model["latency"] < 0.0
