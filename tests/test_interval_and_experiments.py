"""Tests for the analytical interval model and the experiments harness."""

import pytest

from repro.design.resolve import resolve
from repro.experiments.tables import (
    figure2,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.uarch.interval import (
    WorkloadStats,
    predict_cpi,
    workload_stats_from_sim,
)

BASE = resolve("Base").config
ISO = resolve("M3D-Iso").config


class TestIntervalModel:
    def _compute_workload(self):
        return WorkloadStats(
            mispredicts_per_kilo=3.0,
            l2_misses_per_kilo=2.0,
            dram_misses_per_kilo=0.2,
        )

    def _memory_workload(self):
        return WorkloadStats(
            mispredicts_per_kilo=5.0,
            l2_misses_per_kilo=20.0,
            dram_misses_per_kilo=15.0,
        )

    def test_cpi_positive(self):
        assert predict_cpi(BASE, self._compute_workload()) > 0

    def test_memory_bound_has_higher_cpi(self):
        cfg = BASE
        assert predict_cpi(cfg, self._memory_workload()) > predict_cpi(
            cfg, self._compute_workload()
        )

    def test_workload_stats_from_sim(self):
        from repro.uarch.ooo import run_trace
        from repro.workloads.generator import generate_trace
        from repro.workloads.spec import spec_profiles

        result = run_trace(
            BASE, generate_trace(spec_profiles()[0], 800)
        )
        workload = workload_stats_from_sim(result)
        uops = result.stats.uops
        levels = result.stats.mem_level_counts
        assert workload.mispredicts_per_kilo == pytest.approx(
            result.stats.mispredictions * 1000.0 / uops
        )
        assert workload.l2_misses_per_kilo == pytest.approx(
            levels.get("L3", 0) * 1000.0 / uops
        )
        assert workload.dram_misses_per_kilo == pytest.approx(
            levels.get("DRAM", 0) * 1000.0 / uops
        )

    def test_invalid_workload(self):
        with pytest.raises(ValueError):
            WorkloadStats(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            WorkloadStats(1.0, 1.0, 1.0, base_ipc_limit=0.0)


class TestIntervalCrosscheck:
    """The sweep's cycle-vs-interval direction cross-check (repro.design)."""

    def _fake_run(self, cycles, uops, mispredictions=30, l3=5, dram=2):
        import types

        stats = types.SimpleNamespace(
            uops=uops,
            mispredictions=mispredictions,
            mem_level_counts={"L1": uops - l3 - dram, "L3": l3, "DRAM": dram},
        )
        return types.SimpleNamespace(cycles=cycles, stats=stats)

    def _improved_config(self):
        import dataclasses

        return dataclasses.replace(
            BASE, name="improved", load_to_use_cycles=3,
            branch_mispredict_cycles=10,
        )

    def test_agreement_returns_none(self):
        from repro.design.sweep import interval_crosscheck

        # Measured CPI falls and the interval model predicts a fall too.
        message = interval_crosscheck(
            self._improved_config(), BASE,
            run=self._fake_run(900, 1000), base_run=self._fake_run(1000, 1000),
            label="agree",
        )
        assert message is None

    def test_sub_threshold_changes_are_ignored(self):
        from repro.design.sweep import interval_crosscheck

        # A 1% measured rise is inside the noise floor: no verdict.
        message = interval_crosscheck(
            self._improved_config(), BASE,
            run=self._fake_run(1010, 1000),
            base_run=self._fake_run(1000, 1000),
            label="flat",
        )
        assert message is None

    def test_disagreement_returns_message(self):
        from repro.design.sweep import interval_crosscheck

        # The interval model predicts a fall (shorter branch loop and
        # load-to-use) but the cycle model measured a 20% rise.
        message = interval_crosscheck(
            self._improved_config(), BASE,
            run=self._fake_run(1200, 1000),
            base_run=self._fake_run(1000, 1000),
            label="clash/app",
        )
        assert message is not None
        assert "clash/app" in message
        assert "rose" in message

    def test_warning_class_is_catchable(self):
        from repro.obs import ModelDisagreementWarning, warn_model_disagreement

        with pytest.warns(ModelDisagreementWarning, match="direction test"):
            warn_model_disagreement("direction test")


class TestExperimentTables:
    def test_table1_rows(self):
        rows = {row.key: row for row in table1()}
        assert rows["MIV"].model["adder32"] < 0.001
        assert rows["TSV(1.3um)"].model["adder32"] == pytest.approx(
            0.08, rel=0.2
        )

    def test_table2_rows_match_paper_exactly(self):
        for row in table2():
            for key in ("diameter_um", "cap_fF"):
                assert row.model[key] == pytest.approx(
                    row.paper[key], rel=0.01
                ), (row.key, key)

    def test_figure2_row(self):
        row = figure2()
        assert row.model["MIV"] == pytest.approx(0.07, rel=0.1)
        assert row.model["TSV(1.3um)"] == pytest.approx(37.0, rel=0.15)

    def test_table3_bp_gains_positive_for_m3d(self):
        for row in table3():
            if "M3D" in row.key:
                assert row.model["latency"] > 0, row.key

    def test_table4_wp_energy_strong(self):
        rows = {row.key: row for row in table4()}
        # WP's energy savings on the BPT are large in both model and paper.
        assert rows["BPT/M3D"].model["energy"] > 15.0

    def test_table5_tsv_pp_catastrophic(self):
        rows = {row.key: row for row in table5()}
        assert rows["RF/TSV3D"].model["footprint"] < -50.0
        assert rows["RF/M3D"].model["latency"] > 25.0
