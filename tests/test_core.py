"""Tests for structure inventory, frequency derivation and Table 11 configs."""

import dataclasses

import pytest

from repro.core import frequency as freqmod
from repro.core.structures import core_structures, structures_by_name
from repro.design.resolve import (
    derive_frequency,
    paper_multicore_configs,
    paper_single_core_configs,
    resolve,
)


class TestStructures:
    def test_twelve_structures(self):
        assert len(core_structures()) == 12

    def test_table6_geometries(self):
        by_name = structures_by_name()
        assert (by_name["RF"].words, by_name["RF"].bits) == (160, 64)
        assert by_name["RF"].ports == 18  # 12R + 6W
        assert (by_name["IQ"].words, by_name["IQ"].bits) == (84, 16)
        assert (by_name["BPT"].words, by_name["BPT"].bits) == (4096, 8)
        assert by_name["DTLB"].banks == 8
        assert by_name["L2"].banks == 8

    def test_cam_flags(self):
        by_name = structures_by_name()
        for name in ("IQ", "SQ", "LQ"):
            assert by_name[name].cam, name
        assert not by_name["RF"].cam


class TestFrequencyDerivation:
    def test_formula(self):
        assert freqmod.frequency_from_reduction(0.14) == pytest.approx(
            3.3e9 / 0.86
        )

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            freqmod.frequency_from_reduction(1.0)

    def test_iso_near_paper(self):
        # Paper: 3.83 GHz.
        derivation = derive_frequency("M3D-Iso")
        assert 3.6 < derivation.ghz < 4.1

    def test_het_near_paper(self):
        # Paper: 3.79 GHz.
        derivation = derive_frequency("M3D-Het")
        assert 3.5 < derivation.ghz < 4.0

    def test_het_naive_is_9pct_slower_than_iso(self):
        iso = derive_frequency("M3D-Iso")
        naive = freqmod.apply_naive_loss(iso)
        assert naive.frequency == pytest.approx(iso.frequency * 0.91)

    def test_agg_faster_than_conservative(self):
        assert (derive_frequency("M3D-HetAgg").ghz
                > derive_frequency("M3D-Het").ghz)

    def test_tsv_stays_at_base(self):
        assert derive_frequency("TSV3D").frequency == freqmod.BASE_FREQUENCY

    def test_paper_value_mode(self):
        derivation = derive_frequency("M3D-Iso", use_paper_values=True)
        assert derivation.ghz == pytest.approx(3.837, rel=0.01)
        assert derivation.limiting_structure in ("SQ", "BPT")

    def test_ordering_matches_table11(self):
        iso = derive_frequency("M3D-Iso")
        het = derive_frequency("M3D-Het")
        naive = freqmod.apply_naive_loss(iso)
        agg = derive_frequency("M3D-HetAgg")
        assert naive.frequency < het.frequency <= iso.frequency < agg.frequency


class TestConfigs:
    def test_base_parameters_match_table9(self):
        cfg = resolve("Base").config
        assert cfg.ghz == pytest.approx(3.3)
        assert (cfg.dispatch_width, cfg.issue_width, cfg.commit_width) == (4, 6, 4)
        assert cfg.rob_entries == 192
        assert cfg.iq_entries == 84
        assert (cfg.lq_entries, cfg.sq_entries) == (72, 56)
        assert cfg.load_to_use_cycles == 4
        assert cfg.branch_mispredict_cycles == 14

    def test_3d_path_savings(self):
        for name in ("TSV3D", "M3D-Iso", "M3D-Het"):
            cfg = resolve(name).config
            assert cfg.load_to_use_cycles == 3
            assert cfg.branch_mispredict_cycles == 12
            assert cfg.is_3d

    def test_dram_cycles_grow_with_frequency(self):
        # Section 7.1.1: "despite the increase in memory latency in terms
        # of core clocks".
        assert (resolve("M3D-Iso").config.dram_cycles
                > resolve("Base").config.dram_cycles)

    def test_het_2x_table11_row(self):
        cfg = resolve("M3D-Het-2X").config
        assert cfg.num_cores == 8
        assert cfg.ghz == pytest.approx(3.3)
        assert cfg.vdd == pytest.approx(0.75)
        assert cfg.shared_l2

    def test_het_wide_table11_row(self):
        cfg = resolve("M3D-Het-W").config
        assert cfg.issue_width == 8
        assert cfg.ghz == pytest.approx(3.3)

    def test_single_core_lineup(self):
        names = [c.name for c in paper_single_core_configs()]
        assert names == [
            "Base", "TSV3D", "M3D-Iso", "M3D-HetNaive", "M3D-Het", "M3D-HetAgg",
        ]

    def test_multicore_lineup(self):
        names = [c.name for c in paper_multicore_configs()]
        assert names == ["Base", "TSV3D", "M3D-Het", "M3D-Het-W", "M3D-Het-2X"]

    def test_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(resolve("Base").config, frequency=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(resolve("Base").config, num_cores=0)

    def test_agg_frequency_exceeds_het(self):
        assert (resolve("M3D-HetAgg").config.frequency
                > resolve("M3D-Het").config.frequency)

    def test_naive_slower_than_iso(self):
        assert (resolve("M3D-HetNaive").config.frequency
                < resolve("M3D-Iso").config.frequency)
