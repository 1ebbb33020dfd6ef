"""Shared-memory replay images (:mod:`repro.uarch.shm`).

The contract under test: publishing a trace group's replay state and
attaching to it from anywhere — this process or a pool worker — yields
results *identical* to the derive-it-yourself copy path; the publisher
owns the block and always unlinks it, even when execution fails; and
every failure mode (shm disabled, publish failure, stale handle)
degrades to the copy path rather than erroring.
"""

import dataclasses
import os

import pytest

from repro.core.configs import base_config, single_core_configs
from repro.engine.sweep import (
    ExperimentEngine,
    SimSpec,
    _timed_execute_unit,
)
from repro.obs import run_record
from repro.uarch import shm
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_profiles

if os.environ.get("REPRO_KERNEL") in ("0", "false", "off", "no"):
    pytest.skip("kernel disabled via $REPRO_KERNEL", allow_module_level=True)

if not shm.shm_enabled():
    pytest.skip("shared memory unavailable on this platform",
                allow_module_level=True)


def _wide_specs(width=14, uops=900):
    base = single_core_configs()
    configs = [
        dataclasses.replace(c, name=f"{c.name}-v{k}",
                            rob_entries=c.rob_entries + k)
        for k in range((width + len(base) - 1) // len(base))
        for c in base
    ][:width]
    profile = spec_profiles()[0]
    return [SimSpec("single", config, profile, uops) for config in configs]


def _block_exists(handle):
    return os.path.exists("/dev/shm/" + handle.block.name.lstrip("/"))


# ---------------------------------------------------------------------------
# Publish/attach roundtrip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_index", [0, 5])
def test_attached_batch_matches_oracle(profile_index):
    profile = spec_profiles()[profile_index]
    configs = single_core_configs()
    trace = generate_trace(profile, 1100, seed=1234)
    oracle = [run_trace(config, trace) for config in configs]
    publication = shm.publish_group(
        generate_trace(profile, 1100, seed=1234), configs
    )
    try:
        results = shm.run_handle_batch(publication.handle, configs)
        assert results == oracle  # full SimResult equality, CPI included
        # The scalar-forced path through the attached proxy agrees too.
        assert shm.run_handle_batch(publication.handle, configs,
                                    min_vector_width=10**9) == oracle
    finally:
        publication.unlink()
    assert not _block_exists(publication.handle)


def test_publish_covers_both_l2_geometries():
    base = base_config()
    configs = [base, dataclasses.replace(base, name="shared",
                                         shared_l2=True)]
    trace = generate_trace(spec_profiles()[2], 800, seed=1234)
    oracle = [run_trace(config, trace) for config in configs]
    publication = shm.publish_group(
        generate_trace(spec_profiles()[2], 800, seed=1234), configs
    )
    try:
        assert len(publication.handle.images) == 2
        assert shm.run_handle_batch(publication.handle, configs) == oracle
    finally:
        publication.unlink()


def test_unlink_on_exception_and_idempotence():
    configs = single_core_configs()[:3]
    trace = generate_trace(spec_profiles()[1], 400, seed=1234)
    with pytest.raises(RuntimeError):
        with shm.publish_group(trace, configs) as publication:
            assert _block_exists(publication.handle)
            raise RuntimeError("mid-sweep failure")
    assert not _block_exists(publication.handle)
    publication.unlink()  # double-unlink is a no-op


# ---------------------------------------------------------------------------
# Worker-side degradation
# ---------------------------------------------------------------------------


def test_stale_handle_falls_back_to_copy_path():
    specs = _wide_specs(width=4, uops=500)
    trace = generate_trace(specs[0].profile, 500, seed=1234)
    expected = [run_trace(spec.config, trace) for spec in specs]
    publication = shm.publish_group(
        generate_trace(specs[0].profile, 500, seed=1234),
        [spec.config for spec in specs],
    )
    publication.unlink()  # handle now points at a vanished block
    results, _, used_kernel, _, shm_used = _timed_execute_unit(
        ("shm", publication.handle, specs)
    )
    assert results == expected
    assert used_kernel
    assert not shm_used  # degradation is visible in telemetry


def test_shm_enabled_spellings(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_SHM", raising=False)
    assert shm.shm_enabled()
    for value in ("0", "false", "off", "no", " OFF "):
        monkeypatch.setenv("REPRO_KERNEL_SHM", value)
        assert not shm.shm_enabled()
    monkeypatch.setenv("REPRO_KERNEL_SHM", "1")
    assert shm.shm_enabled()


# ---------------------------------------------------------------------------
# Engine integration: a 2-worker pool over one wide group
# ---------------------------------------------------------------------------


def test_pool_sharding_matches_serial_and_records_shm():
    specs = _wide_specs()
    serial = ExperimentEngine(jobs=1, cache_dir=None).run_specs(
        specs, use_cache=False
    )
    engine = ExperimentEngine(jobs=2, cache_dir=None)
    with run_record() as record:
        parallel = engine.run_specs(specs, use_cache=False)
    assert parallel == serial
    shards = [r for r in record.kernel_batches if r.shm]
    assert len(shards) == 2  # one wide group sharded across both workers
    assert sum(r.width for r in shards) == len(specs)
    assert all(r.used_kernel and r.path == "vectorized" for r in shards)
    assert record.kernel_summary()["shm_groups"] == 2
    leftovers = [f for f in os.listdir("/dev/shm") if f.startswith("psm_")]
    assert leftovers == []


def test_pool_fallback_disabled_shm_is_identical(monkeypatch):
    specs = _wide_specs(width=10, uops=700)
    serial = ExperimentEngine(jobs=1, cache_dir=None).run_specs(
        specs, use_cache=False
    )
    monkeypatch.setenv("REPRO_KERNEL_SHM", "0")
    engine = ExperimentEngine(jobs=2, cache_dir=None)
    with run_record() as record:
        fallback = engine.run_specs(specs, use_cache=False)
    assert fallback == serial
    records = record.kernel_batches
    assert len(records) == 1  # whole group in one copy unit
    assert records[0].width == len(specs)
    assert not records[0].shm


def test_publish_failure_keeps_copy_path(monkeypatch):
    specs = _wide_specs(width=8, uops=600)
    serial = ExperimentEngine(jobs=1, cache_dir=None).run_specs(
        specs, use_cache=False
    )

    def broken_publish(trace, configs):
        raise OSError("no shared memory today")

    monkeypatch.setattr(shm, "publish_group", broken_publish)
    engine = ExperimentEngine(jobs=2, cache_dir=None)
    with run_record() as record:
        results = engine.run_specs(specs, use_cache=False)
    assert results == serial
    assert record.kernel_batches  # the group ran, on the copy path
    assert all(not r.shm for r in record.kernel_batches)


def test_engine_unlinks_when_submission_raises(monkeypatch):
    from repro.engine import pool as worker_pool

    published = []
    original = shm.publish_group

    def tracking_publish(trace, configs):
        publication = original(trace, configs)
        published.append(publication)
        return publication

    def exploding_submit(self, fn, *args):
        raise RuntimeError("worker pool died")

    monkeypatch.setattr(shm, "publish_group", tracking_publish)
    monkeypatch.setattr(worker_pool.PoolLease, "submit", exploding_submit)
    engine = ExperimentEngine(jobs=2, cache_dir=None)
    with pytest.raises(RuntimeError):
        engine.run_specs(_wide_specs(width=8, uops=600), use_cache=False)
    assert published  # the shm path was actually planned
    assert all(not _block_exists(p.handle) for p in published)


def test_abandoned_batch_unlinks_publications():
    specs = _wide_specs(width=12, uops=600)
    engine = ExperimentEngine(jobs=2, cache_dir=None)
    pending = engine.submit_specs(specs, use_cache=False)
    assert not pending.done
    pending.abandon()
    leftovers = [f for f in os.listdir("/dev/shm") if f.startswith("psm_")]
    assert leftovers == []
    pending.abandon()  # idempotent
