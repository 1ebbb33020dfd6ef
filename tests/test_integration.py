"""Integration tests chaining the full pipeline:
SRAM -> partition -> frequency -> simulator -> power -> thermal."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import frequency as freqmod
from repro.core.structures import core_structures
from repro.design.resolve import (
    paper_multicore_configs,
    paper_single_core_configs,
    resolve,
)
from repro.partition.planner import plan_core
from repro.power.core_power import power_model_for
from repro.tech.process import stack_m3d_hetero, stack_m3d_iso
from repro.thermal.hotspot import peak_temperature_for
from repro.uarch.multicore import run_parallel_tiles
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.parallel import parallel_by_name
from repro.workloads.spec import spec_by_name


class TestPartitionToFrequencyChain:
    def test_plans_drive_table11(self):
        """The frequency derivation consumes real planner output."""
        plans = plan_core(core_structures(), stack_m3d_iso())
        derivation = freqmod.derive_from_plans("chain", plans)
        limiter = min(plans, key=lambda plan: plan.best_report.latency_pct)
        assert derivation.limiting_structure == limiter.geometry.name
        assert derivation.limiting_reduction == pytest.approx(
            limiter.best_report.latency_pct / 100
        )
        assert derivation.frequency == pytest.approx(
            freqmod.BASE_FREQUENCY / (1 - derivation.limiting_reduction)
        )

    def test_hetero_chain_slower_or_equal(self):
        iso = plan_core(core_structures(), stack_m3d_iso())
        het = plan_core(
            core_structures(), stack_m3d_hetero(), asymmetric=True
        )
        f_iso = freqmod.derive_from_plans("iso", iso).frequency
        f_het = freqmod.derive_from_plans("het", het).frequency
        assert f_het <= f_iso * 1.001


class TestSimulatorChain:
    @pytest.fixture(scope="class")
    def povray_runs(self):
        trace = generate_trace(spec_by_name()["Povray"], 6000)
        return {
            cfg.name: run_trace(cfg, trace)
            for cfg in (resolve(name).config
                        for name in ("Base", "TSV3D", "M3D-Iso", "M3D-Het"))
        }

    def test_figure6_ordering_on_compute_app(self, povray_runs):
        base = povray_runs["Base"]
        speedups = {
            name: run.speedup_over(base) for name, run in povray_runs.items()
        }
        # Paper ordering: Base < TSV3D < M3D-Het <= M3D-Iso.
        assert 1.0 < speedups["TSV3D"] < speedups["M3D-Het"]
        assert speedups["M3D-Het"] <= speedups["M3D-Iso"] + 0.02

    def test_ipc_gains_beyond_frequency(self, povray_runs):
        # TSV3D runs at base frequency: all of its speedup is IPC (shorter
        # load-to-use and branch paths).
        base = povray_runs["Base"]
        tsv = povray_runs["TSV3D"]
        assert tsv.cycles < base.cycles

    def test_energy_chain(self, povray_runs):
        base_report = power_model_for(resolve("Base").config).evaluate(
            povray_runs["Base"]
        )
        het_report = power_model_for(resolve("M3D-Het").config).evaluate(
            povray_runs["M3D-Het"]
        )
        assert het_report.normalized_to(base_report) < 0.85

    def test_thermal_chain(self, povray_runs):
        base_power = power_model_for(resolve("Base").config).evaluate(
            povray_runs["Base"]
        ).average_power
        het_power = power_model_for(resolve("M3D-Het").config).evaluate(
            povray_runs["M3D-Het"]
        ).average_power
        profile = spec_by_name()["Povray"]
        base_t = peak_temperature_for("Base", base_power, profile, grid=8)
        het_t = peak_temperature_for("M3D-Het", het_power, profile, grid=8)
        assert het_t.peak_c > base_t.peak_c  # denser
        assert het_t.peak_c - base_t.peak_c < 15.0  # but thermally efficient


class TestMulticoreChain:
    def test_full_multicore_lineup_runs(self):
        profile = parallel_by_name()["Lu"]
        results = {
            cfg.name: run_parallel_tiles([cfg] * cfg.num_cores, profile,
                                         12000)
            for cfg in paper_multicore_configs()
        }
        base = results["Base"]
        speedups = {
            name: result.speedup_over(base) for name, result in results.items()
        }
        # Figure 9 ordering: TSV weakest 3D design, Het-2X near 2x.
        assert speedups["TSV3D"] <= speedups["M3D-Het"] + 0.05
        assert speedups["M3D-Het-2X"] > 1.4

    def test_multicore_energy_chain(self):
        profile = parallel_by_name()["Fft"]
        base_cfg = paper_multicore_configs()[0]
        het_cfg = paper_multicore_configs()[2]
        base = run_parallel_tiles([base_cfg] * base_cfg.num_cores, profile,
                                  12000)
        het = run_parallel_tiles([het_cfg] * het_cfg.num_cores, profile,
                                 12000)
        base_report = power_model_for(base_cfg).evaluate_multicore(base)
        het_report = power_model_for(het_cfg).evaluate_multicore(het)
        assert het_report.total < base_report.total


class TestDeterminism:
    def test_end_to_end_reproducible(self):
        trace_a = generate_trace(spec_by_name()["Gcc"], 3000, seed=5)
        trace_b = generate_trace(spec_by_name()["Gcc"], 3000, seed=5)
        run_a = run_trace(resolve("Base").config, trace_a)
        run_b = run_trace(resolve("Base").config, trace_b)
        assert run_a.cycles == run_b.cycles
        assert run_a.stats.mispredictions == run_b.stats.mispredictions


class TestAllConfigsRun:
    def test_every_single_core_config_simulates(self):
        trace = generate_trace(spec_by_name()["Hmmer"], 3000)
        for cfg in paper_single_core_configs():
            result = run_trace(cfg, trace)
            assert result.cycles > 0
            assert result.ipc > 0


_IMPORT_ALL_WITHOUT_NETWORKX = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
         if info.name != "repro.__main__"]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_networkx():
    """No module needs networkx: with it blocked, every ``repro`` module
    still imports, even where networkx happens to be installed."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL_WITHOUT_NETWORKX],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 50
