"""Benchmarks regenerating Table 6 (iso/TSV partitions), Table 8 (hetero
partitions) and Table 11 (derived frequencies)."""

import pytest

from repro.experiments.runner import ARTIFACTS, BuildParams


@pytest.mark.table
def test_table6_m3d_partitions(benchmark):
    table = benchmark(ARTIFACTS["table6"], BuildParams()).tables["M3D"]
    table.print()
    by_key = {row.key: row for row in table.rows}
    # PP for every multiported structure, BP/WP for the rest.
    for name in ("RF", "IQ", "SQ", "LQ", "RAT"):
        assert by_key[name].model["strategy"] == "PP", name
    for name in ("BPT", "BTB", "DTLB", "ITLB", "IL1", "DL1", "L2"):
        assert by_key[name].model["strategy"] in ("BP", "WP"), name
    # Every reduction positive, RF near the paper's 41/38/56.
    for name, row in by_key.items():
        assert row.model["latency"] > 0, name
    assert by_key["RF"].model["latency"] == pytest.approx(41, abs=8)


@pytest.mark.table
def test_table6_tsv_partitions(benchmark):
    table = benchmark(ARTIFACTS["table6"], BuildParams()).tables["TSV3D"]
    table.print()
    by_key = {row.key: row for row in table.rows}
    for name, row in by_key.items():
        assert row.model["strategy"] != "PP", name
    # TSV3D regresses somewhere, exactly as the paper's column does.
    assert min(row.model["latency"] for row in table.rows) < 3.0


@pytest.mark.table
def test_table8_hetero_partitions(benchmark):
    table = benchmark(ARTIFACTS["table8"], BuildParams())
    table.print()
    by_key = {row.key: row for row in table.rows}
    for name in ("RF", "IQ", "SQ", "LQ", "RAT"):
        assert by_key[name].model["strategy"] == "PP", name
    for name, row in by_key.items():
        assert row.model["latency"] > 0, name
        # Hetero partitions land within a few points of the paper.
        assert abs(row.model["latency"] - row.paper["latency"]) < 16, name


@pytest.mark.table
def test_table11_frequencies(benchmark):
    table = benchmark(ARTIFACTS["table11"], BuildParams())
    table.print()
    ghz = {row.key: row.model["ghz"] for row in table.rows}
    # Ordering and magnitudes of the paper's configuration table.
    assert ghz["Base"] == pytest.approx(3.30)
    assert ghz["TSV3D"] == pytest.approx(3.30)
    assert ghz["M3D-Iso"] == pytest.approx(3.83, rel=0.05)
    assert ghz["M3D-HetNaive"] == pytest.approx(3.50, rel=0.05)
    assert ghz["M3D-Het"] == pytest.approx(3.79, rel=0.05)
    assert ghz["M3D-HetAgg"] == pytest.approx(4.34, rel=0.06)
    assert ghz["M3D-HetNaive"] < ghz["M3D-Het"] <= ghz["M3D-Iso"] < ghz["M3D-HetAgg"]
