"""The batched SoA kernel (:mod:`repro.uarch.kernel`).

The kernel's contract is *cycle-exactness*: ``run_trace_batch`` must
return results indistinguishable (full dataclass equality — stats,
stall attribution, memory-level histograms, everything) from per-config
``OutOfOrderCore.run`` calls, at every batch width and chunk boundary
of its one generated timing loop.  These tests pin that
contract, the multicore batch equivalent, the engine's byte-identical
figure output with the kernel on vs off, and the generator digests the
replay-sharing optimisations silently depend on.
"""

import dataclasses
import os

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
# Single-core exactness: batch == oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_index", [0, 4, 9])
def test_batch_matches_oracle_paper_configs(profile_index):
    profile = spec_profiles()[profile_index]
    configs = single_core_configs()
    trace = _fresh_trace(profile, 1500)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 1500))
    assert batched == oracle  # full SimResult equality, stats included


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


@pytest.mark.parametrize("delta", [-1, 0, 1, kernel.MERGED_CHUNK + 1])
def test_dispatch_boundary_widths(delta, monkeypatch):
    """Exactness and config order at the chunk boundaries: widths
    MERGED_CHUNK - 1, MERGED_CHUNK, MERGED_CHUNK + 1 and
    2 * MERGED_CHUNK + 1, with ``shared_l2`` alternating so the batch
    splits by L2 geometry and, at the widest, a geometry group splits
    into a full chunk plus a remainder."""
    chunk = kernel.MERGED_CHUNK
    width = chunk + delta
    timed_widths = []
    real_time_merged = kernel._time_merged

    def spy(trace, arrays, corrects, image, configs, *rest):
        timed_widths.append(len(configs))
        return real_time_merged(trace, arrays, corrects, image, configs,
                                *rest)

    monkeypatch.setattr(kernel, "_time_merged", spy)
    base = base_config()
    configs = [
        dataclasses.replace(base, name=f"b{k}", shared_l2=bool(k % 2),
                            rob_entries=base.rob_entries + k)
        for k in range(width)
    ]
    profile = spec_profiles()[1]
    trace = _fresh_trace(profile, 900)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 900))
    assert batched == oracle  # 0.0 divergence vs the OOO oracle
    assert [r.config_name for r in batched] == [c.name for c in configs]
    groups = ((width + 1) // 2, width // 2)  # private / shared L2
    assert sorted(timed_widths) == sorted(
        min(chunk, size - lo) for size in groups
        for lo in range(0, size, chunk)
    )


def test_merged_memo_evicts_least_recently_used(monkeypatch):
    """A geometry reused between newer ones keeps its compiled loop:
    fill the memo, reuse the first key, add one more, then ask for the
    first key again — it must still be cached, not recompiled."""
    compiled = []
    real_source = kernel._merged_source

    def counting_source(key):
        compiled.append(key)
        return real_source(key)

    monkeypatch.setattr(kernel, "_merged_source", counting_source)
    base = base_config()
    trace = _fresh_trace(spec_profiles()[0], 200)

    def batch(k):
        # Geometries no other test uses, so whatever the memo already
        # holds is older than every key here.
        return [dataclasses.replace(base, name=f"memo{k}-{j}",
                                    rob_entries=900 + 2 * k + j)
                for j in range(2)]

    cap = kernel._MERGED_MEMO.cap
    for k in range(cap):
        run_trace_batch(batch(k), trace)
    run_trace_batch(batch(0), trace)
    run_trace_batch(batch(cap), trace)
    run_trace_batch(batch(0), trace)
    assert len(compiled) == cap + 1


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


def test_kernel_path_builds_no_micro_ops(monkeypatch):
    """Traces are generated as columns and the kernel reads the columns:
    only the scalar oracle, digests and tests build ``MicroOp`` records."""
    from repro.uarch import multicore
    from repro.uarch.isa import MicroOp, OpClass

    for memo in (multicore._MC_TRACE_MEMO, multicore._MC_STREAM_MEMO,
                 multicore._MC_IMAGE_MEMO):
        memo.clear()
    built = []
    original = MicroOp.__post_init__

    def counting(self):
        built.append(self.op)
        original(self)

    monkeypatch.setattr(MicroOp, "__post_init__", counting)
    MicroOp(op=OpClass.ALU)
    assert built == [OpClass.ALU]  # the counter sees construction
    built.clear()
    run_trace_batch(single_core_configs(),
                    _fresh_trace(spec_profiles()[1], 800))
    run_parallel_batch(multicore_configs(), parallel_profiles()[1], 2400)
    assert built == []
    for memo in (multicore._MC_TRACE_MEMO, multicore._MC_STREAM_MEMO,
                 multicore._MC_IMAGE_MEMO):
        memo.clear()


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
# Limiter bookkeeping: occupancy-map sizes ride on every result
# ---------------------------------------------------------------------------


def test_kernel_results_carry_tracked_limiter_cycles():
    configs = single_core_configs()
    profile = spec_profiles()[0]
    trace = _fresh_trace(profile, 800)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 800))
    assert all(r.stats.tracked_limiter_cycles > 0 for r in oracle)
    assert [r.stats.tracked_limiter_cycles for r in batched] == \
        [r.stats.tracked_limiter_cycles for r in oracle]
