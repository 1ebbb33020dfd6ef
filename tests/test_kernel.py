"""The batched SoA kernel (:mod:`repro.uarch.kernel`).

The kernel's contract is *cycle-exactness*: ``run_trace_batch`` must
return results indistinguishable (full dataclass equality — stats,
stall attribution, memory-level histograms, everything) from per-config
``OutOfOrderCore.run`` calls, through both of its internal paths (the
decoded scalar loop and the NumPy vector path).  These tests pin that
contract, the multicore batch equivalent, the engine's byte-identical
figure output with the kernel on vs off, and the generator digests the
replay-sharing optimisations silently depend on.
"""

import dataclasses
import os
import warnings

import pytest

from repro.core.configs import (
    base_config,
    multicore_configs,
    single_core_configs,
)
from repro.golden import TRACE_CASES, load_golden, trace_digest
from repro.uarch import kernel
from repro.uarch.kernel import (
    kernel_enabled,
    run_trace_batch,
    simulate_core,
    vector_min_width,
)
from repro.uarch.multicore import run_parallel, run_parallel_batch
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.parallel import parallel_profiles
from repro.workloads.spec import spec_profiles

if os.environ.get("REPRO_KERNEL") in ("0", "false", "off", "no"):
    pytest.skip("kernel disabled via $REPRO_KERNEL", allow_module_level=True)


def _fresh_trace(profile, uops, seed=1234, thread=None):
    if thread is None:
        return generate_trace(profile, uops, seed=seed)
    return generate_trace(profile, uops, seed=seed, thread=thread)


# ---------------------------------------------------------------------------
# Single-core exactness: batch == oracle, both internal paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_index", [0, 4, 9])
def test_batch_matches_oracle_paper_configs(profile_index):
    profile = spec_profiles()[profile_index]
    configs = single_core_configs()
    trace = _fresh_trace(profile, 1500)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 1500))
    assert batched == oracle  # full SimResult equality, stats included


@pytest.mark.parametrize("profile_index", [0, 9])
def test_vector_path_matches_oracle(profile_index):
    """Forcing the NumPy path (min_vector_width=1) changes nothing."""
    profile = spec_profiles()[profile_index]
    configs = single_core_configs()
    trace = _fresh_trace(profile, 1500)
    oracle = [run_trace(config, trace) for config in configs]
    vectorized = run_trace_batch(configs, _fresh_trace(profile, 1500),
                                 min_vector_width=1)
    assert vectorized == oracle


def test_batch_matches_oracle_edge_configs():
    """Narrow widths, hetero penalty, shared L2, tiny queues."""
    base = base_config()
    configs = [
        base,
        dataclasses.replace(base, name="narrow", dispatch_width=1,
                            issue_width=1, commit_width=1),
        dataclasses.replace(base, name="hetero", hetero=True, is_3d=True,
                            load_to_use_cycles=3,
                            branch_mispredict_cycles=12),
        dataclasses.replace(base, name="sharedl2", shared_l2=True),
        dataclasses.replace(base, name="tinyq", rob_entries=8, iq_entries=4,
                            lq_entries=2, sq_entries=2),
        dataclasses.replace(base, name="fast", frequency=4.4e9),
    ]
    profile = spec_profiles()[2]
    trace = _fresh_trace(profile, 1200)
    oracle = [run_trace(config, trace) for config in configs]
    assert run_trace_batch(configs, _fresh_trace(profile, 1200)) == oracle
    assert run_trace_batch(configs, _fresh_trace(profile, 1200),
                           min_vector_width=1) == oracle


def test_batch_preserves_config_order_and_duplicates():
    configs = single_core_configs()
    shuffled = [configs[3], configs[0], configs[3], configs[5]]
    profile = spec_profiles()[1]
    trace = _fresh_trace(profile, 800)
    oracle = [run_trace(config, trace) for config in shuffled]
    batched = run_trace_batch(shuffled, _fresh_trace(profile, 800))
    assert batched == oracle
    assert [r.config_name for r in batched] == [c.name for c in shuffled]


def test_simulate_core_matches_oracle_single():
    """The per-core primitive agrees with the oracle on its own."""
    config = base_config()
    profile = spec_profiles()[0]
    trace = _fresh_trace(profile, 1000)
    expected = run_trace(config, trace)
    replay_trace = _fresh_trace(profile, 1000)
    image = kernel.replay_memory(replay_trace, config)
    assert simulate_core(replay_trace, config, image) == expected


def test_stats_out_reports_path_taken():
    configs = single_core_configs()
    profile = spec_profiles()[0]
    stats = {}
    run_trace_batch(configs, _fresh_trace(profile, 600),
                    min_vector_width=10**9, stats_out=stats)
    assert stats["scalar_groups"] >= 1  # threshold forced above the width
    stats = {}
    run_trace_batch(configs, _fresh_trace(profile, 600), min_vector_width=1,
                    stats_out=stats)
    assert stats["vectorized_groups"] >= 1


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_dispatch_boundary_widths(delta):
    """Exactness and path selection at threshold-1 / threshold /
    threshold+1 configs (the widths where dispatch flips paths)."""
    threshold = 4
    width = threshold + delta
    base = base_config()
    configs = [
        dataclasses.replace(base, name=f"b{k}", rob_entries=base.rob_entries + k)
        for k in range(width)
    ]
    profile = spec_profiles()[1]
    trace = _fresh_trace(profile, 900)
    oracle = [run_trace(config, trace) for config in configs]
    stats = {}
    batched = run_trace_batch(configs, _fresh_trace(profile, 900),
                              min_vector_width=threshold, stats_out=stats)
    assert batched == oracle  # 0.0 divergence vs the OOO oracle
    if width >= threshold:
        assert stats["vectorized_groups"] >= 1
        assert stats.get("scalar_groups", 0) == 0
    else:
        assert stats["scalar_groups"] >= 1
        assert stats.get("vectorized_groups", 0) == 0


def test_config_axis_loop_matches_merged_loop(monkeypatch):
    """The two internal vectorized modes (merged config-unrolled loop
    below CONFIG_AXIS_MIN, NumPy config-axis loop above) are
    interchangeable: forcing either at the same width changes nothing."""
    configs = single_core_configs()
    profile = spec_profiles()[3]
    trace = _fresh_trace(profile, 1000)
    oracle = [run_trace(config, trace) for config in configs]
    monkeypatch.setattr(kernel, "CONFIG_AXIS_MIN", 1)  # force axis loop
    assert run_trace_batch(configs, _fresh_trace(profile, 1000),
                           min_vector_width=1) == oracle
    monkeypatch.setattr(kernel, "CONFIG_AXIS_MIN", 10**9)  # force merged
    assert run_trace_batch(configs, _fresh_trace(profile, 1000),
                           min_vector_width=1) == oracle


# ---------------------------------------------------------------------------
# Environment gates
# ---------------------------------------------------------------------------


def test_kernel_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert kernel_enabled()
    for value in ("0", "false", "off", "no"):
        monkeypatch.setenv("REPRO_KERNEL", value)
        assert not kernel_enabled()
    monkeypatch.setenv("REPRO_KERNEL", "1")
    assert kernel_enabled()


def _isolate_tuning(monkeypatch, tmp_path):
    """Point the tuned-threshold file somewhere empty so host tuning
    state can't leak into threshold assertions."""
    monkeypatch.setenv("REPRO_TUNING_FILE", str(tmp_path / "tuning.json"))


def test_vector_min_width_env(monkeypatch, tmp_path):
    _isolate_tuning(monkeypatch, tmp_path)
    monkeypatch.delenv("REPRO_KERNEL_VECTOR_MIN", raising=False)
    assert vector_min_width() == kernel.DEFAULT_VECTOR_MIN
    monkeypatch.setenv("REPRO_KERNEL_VECTOR_MIN", "3")
    assert vector_min_width() == 3


@pytest.mark.parametrize("raw", ["abc", "2.5", "1e3", "0x10", "five"])
def test_vector_min_env_garbage_warns_once(monkeypatch, tmp_path, raw):
    _isolate_tuning(monkeypatch, tmp_path)
    monkeypatch.setenv("REPRO_KERNEL_VECTOR_MIN", raw)
    monkeypatch.setattr(kernel, "_WARNED_VECTOR_MIN", set())
    with pytest.warns(RuntimeWarning, match="invalid"):
        assert vector_min_width() == kernel.DEFAULT_VECTOR_MIN
    # Warned exactly once per spelling: the second read is silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vector_min_width() == kernel.DEFAULT_VECTOR_MIN


@pytest.mark.parametrize("raw", ["-3", "0", "1", "-100"])
def test_vector_min_env_small_values_clamp_to_two(monkeypatch, tmp_path, raw):
    _isolate_tuning(monkeypatch, tmp_path)
    monkeypatch.setenv("REPRO_KERNEL_VECTOR_MIN", raw)
    monkeypatch.setattr(kernel, "_WARNED_VECTOR_MIN", set())
    with pytest.warns(RuntimeWarning, match="clamping"):
        assert vector_min_width() == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vector_min_width() == 2


def test_vector_min_env_blank_is_default_without_warning(monkeypatch,
                                                         tmp_path):
    _isolate_tuning(monkeypatch, tmp_path)
    for raw in ("", "   "):
        monkeypatch.setenv("REPRO_KERNEL_VECTOR_MIN", raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vector_min_width() == kernel.DEFAULT_VECTOR_MIN


def test_tuned_threshold_precedence(monkeypatch, tmp_path):
    """env > tuned file > DEFAULT_VECTOR_MIN, malformed files ignored."""
    _isolate_tuning(monkeypatch, tmp_path)
    monkeypatch.delenv("REPRO_KERNEL_VECTOR_MIN", raising=False)
    assert kernel.tuned_vector_min() is None
    assert vector_min_width() == kernel.DEFAULT_VECTOR_MIN

    path = kernel.save_tuning({"vector_min": 7, "crossover": 7})
    assert path == tmp_path / "tuning.json"
    assert kernel.tuned_vector_min() == 7
    assert vector_min_width() == 7

    monkeypatch.setenv("REPRO_KERNEL_VECTOR_MIN", "5")
    assert vector_min_width() == 5  # env beats the tuned file

    monkeypatch.delenv("REPRO_KERNEL_VECTOR_MIN", raising=False)
    for bad in ('{"vector_min": "lots"}', '{"vector_min": 1}',
                '{"vector_min": true}', "not json", "[]"):
        (tmp_path / "tuning.json").write_text(bad)
        assert kernel.tuned_vector_min() is None
        assert vector_min_width() == kernel.DEFAULT_VECTOR_MIN


def test_calibrate_structure_and_persistence(monkeypatch, tmp_path):
    _isolate_tuning(monkeypatch, tmp_path)
    record = kernel.calibrate(widths=(2, 3), uops=250, repeats=1)
    assert record["widths"] == [2, 3]
    assert set(record["batched_seconds"]) == {"2", "3"}
    assert set(record["vectorized_seconds"]) == {"2", "3"}
    assert all(v > 0 for v in record["batched_seconds"].values())
    assert record["vector_min"] >= 2
    kernel.save_tuning(record)
    assert kernel.tuned_vector_min() == record["vector_min"]


# ---------------------------------------------------------------------------
# Multicore batch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_index", [0, 2])
def test_parallel_batch_matches_run_parallel(profile_index):
    profile = parallel_profiles()[profile_index]
    configs = multicore_configs()
    oracle = [run_parallel(config, profile, 2400, seed=1234)
              for config in configs]
    batched = run_parallel_batch(configs, profile, 2400, seed=1234)
    assert batched == oracle


def test_parallel_batch_rejects_serial_profiles():
    with pytest.raises(ValueError):
        run_parallel_batch(multicore_configs(), spec_profiles()[0], 1000)


# ---------------------------------------------------------------------------
# Engine regression: figure6 identical with the kernel on and off
# ---------------------------------------------------------------------------


def test_figure6_identical_with_kernel_disabled(monkeypatch):
    from repro import engine
    from repro.experiments.figures import figure6

    engine.configure(jobs=1, cache_dir=None)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    with_kernel = figure6(uops=900)
    engine.configure(jobs=1, cache_dir=None)  # drop the cached sweep
    monkeypatch.setenv("REPRO_KERNEL", "0")
    without_kernel = figure6(uops=900)
    engine.configure(jobs=1, cache_dir=None)
    assert with_kernel == without_kernel


def test_engine_telemetry_counts_kernel_batches():
    from repro.engine.sweep import ExperimentEngine

    from repro.obs import run_record

    eng = ExperimentEngine(jobs=1, cache_dir=None)
    with run_record() as record:
        eng.single_core_runs(700, profiles=spec_profiles()[:2])
    summary = record.kernel_summary()
    assert summary["groups"] == 2  # one batch per profile
    assert summary["batched_specs"] == 2 * len(single_core_configs())
    assert summary["max_width"] == len(single_core_configs())
    assert summary["fallback_specs"] == 0


# ---------------------------------------------------------------------------
# Generator pinning: the replay-sharing memos assume traces are
# deterministic functions of (profile, uops, seed, thread).  The pinned
# digests live in goldens/traces.json; the cases, the hash and the
# golden store are all repro.golden's (re-bless with
# `repro validate --update --only traces`).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", TRACE_CASES,
                         ids=lambda c: f"{c[0]}{c[1]}-u{c[2]}-s{c[3]}")
def test_generated_trace_digests_pinned(case):
    suite, index, uops, seed, thread = case
    expected = {
        (c["suite"], c["index"], c["uops"], c["seed"], c["thread"]):
            c["digest"]
        for c in load_golden("traces")["payload"]["cases"]
    }[(suite, index, uops, seed, thread)]
    profiles = spec_profiles() if suite == "spec" else parallel_profiles()
    trace = _fresh_trace(profiles[index], uops, seed=seed, thread=thread)
    assert trace_digest(trace) == expected


# ---------------------------------------------------------------------------
# Manifest: the kernel section validates and reflects engine activity
# ---------------------------------------------------------------------------


def test_manifest_kernel_section_roundtrip():
    from repro.engine.sweep import ExperimentEngine
    from repro.obs import build_manifest, run_record, validate_manifest

    eng = ExperimentEngine(jobs=1, cache_dir=None)
    with run_record() as record:
        eng.single_core_runs(600, profiles=spec_profiles()[:1])
    manifest = build_manifest("test", record, engine=eng)
    assert validate_manifest(manifest) == []
    assert manifest["kernel"]["summary"]["batched_specs"] == len(
        single_core_configs()
    )
    assert all(batch["used_kernel"]
               for batch in manifest["kernel"]["batches"])


def test_manifest_rejects_malformed_kernel_section():
    from repro.engine.sweep import ExperimentEngine
    from repro.obs import RunRecord, build_manifest, validate_manifest

    manifest = build_manifest(
        "test", RunRecord(), engine=ExperimentEngine(jobs=1, cache_dir=None)
    )
    manifest["kernel"] = {"summary": {"groups": "lots"}, "batches": [{}]}
    problems = validate_manifest(manifest)
    assert any("kernel.summary" in p for p in problems)
    assert any("kernel.batches[0]" in p for p in problems)


# ---------------------------------------------------------------------------
# Deprecation shim (satellite: the module-global limiter counter)
# ---------------------------------------------------------------------------


def test_last_tracked_cycles_deprecated_and_on_stats():
    from repro.uarch import ooo

    result = run_trace(base_config(), _fresh_trace(spec_profiles()[0], 400))
    assert result.stats.tracked_limiter_cycles > 0
    with pytest.warns(DeprecationWarning):
        legacy = ooo.last_tracked_cycles()
    assert legacy == result.stats.tracked_limiter_cycles


def test_kernel_results_carry_tracked_limiter_cycles():
    configs = single_core_configs()
    profile = spec_profiles()[0]
    trace = _fresh_trace(profile, 800)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 800))
    assert [r.stats.tracked_limiter_cycles for r in batched] == \
        [r.stats.tracked_limiter_cycles for r in oracle]
