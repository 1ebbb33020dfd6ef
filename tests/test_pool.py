"""The persistent worker pool (:mod:`repro.engine.pool`).

Contract under test: one shared executor serves every engine in the
process (lazy spawn, grow-only sizing, lease accounting); a worker
crash respawns the pool at no less than its width and resubmits the
lost unit once, with results identical to a serial run; a failed
submission or an abandoned batch releases its lease; changing any
``REPRO_*`` environment variable respawns so workers never run with
stale knobs; and shutdown leaves no live worker processes behind.
"""

import os
import signal

import pytest

from repro.design.resolve import paper_single_core_configs
from repro.engine import pool
from repro.engine import sweep as sweep_module
from repro.engine.sweep import ExperimentEngine, SimSpec
from repro.workloads.spec import spec_profiles
from tests.waiting import wait_for_process_death

#: The unpatched worker entry point, captured at import time so the
#: crash-once wrapper below can delegate to the real implementation.
_REAL_TIMED_EXECUTE_UNIT = sweep_module._timed_execute_unit

#: Env var carrying the crash sentinel path into forked workers.  The
#: ``REPRO_`` prefix is deliberate: setting it respawns the pool, so
#: the workers that fork afterwards see both the variable and the
#: monkeypatched module state.
_SENTINEL_ENV = "REPRO_TEST_CRASH_SENTINEL"


def _specs(width=6, uops=500, profiles=2):
    configs = paper_single_core_configs()[:width]
    return [
        SimSpec("single", config, profile, uops)
        for profile in spec_profiles()[:profiles]
        for config in configs
    ]


def _crash_once(sentinel: str) -> str:
    """Worker-side: die hard on the first call, succeed ever after.

    Module-level so the fork pool can pickle it by reference; the
    sentinel file distinguishes the first execution from the retry.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _crash_once_unit(unit):
    """Stand-in for ``sweep._timed_execute_unit``: one worker suicide
    mid-batch, then the real implementation for every later call."""
    sentinel = os.environ[_SENTINEL_ENV]
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_TIMED_EXECUTE_UNIT(unit)


class TestSharedExecutor:
    def test_lazy_spawn_reuse_and_growth(self):
        pool.shutdown_pool()
        before = pool.pool_stats()
        assert not before["running"]

        _, first_gen = pool.get_executor(1)
        stats = pool.pool_stats()
        assert stats["running"] and stats["workers"] == 1
        assert stats["spawns"] == before["spawns"] + 1

        # A wider request respawns; an equal-or-narrower one reuses.
        _, wide_gen = pool.get_executor(2)
        assert wide_gen == first_gen + 1
        assert pool.pool_stats()["workers"] == 2
        _, narrow_gen = pool.get_executor(1)
        assert narrow_gen == wide_gen  # grow-only: no shrink respawn
        assert pool.pool_stats()["reuses"] == before["reuses"] + 1

    def test_warm_up_materialises_workers(self):
        pool.shutdown_pool()
        pids = pool.warm_up(2)
        assert 1 <= len(pids) <= 2  # dedup'd: both tasks may land on one
        assert set(pids) <= set(pool.worker_pids())
        for pid in pids:
            os.kill(pid, 0)  # alive right now, by construction

    def test_env_change_respawns(self, monkeypatch):
        _, gen = pool.get_executor(1)
        monkeypatch.setenv("REPRO_POOL_TEST_KNOB", "1")
        _, changed_gen = pool.get_executor(1)
        assert changed_gen == gen + 1  # workers must see the new env
        monkeypatch.delenv("REPRO_POOL_TEST_KNOB")
        _, restored_gen = pool.get_executor(1)
        assert restored_gen == changed_gen + 1

    def test_shutdown_joins_every_worker(self):
        executor, _ = pool.get_executor(2)
        executor.submit(os.getpid).result()  # materialize a worker
        pids = pool.worker_pids()
        assert len(pids) >= 1
        pool.shutdown_pool()
        assert pool.worker_pids() == []
        assert not pool.pool_stats()["running"]
        # Event-based, not instant: shutdown(wait=True) joins the
        # workers, but "joined" and "reaped by the OS" are distinct
        # moments — poll for death instead of racing the kernel.
        wait_for_process_death(pids)
        pool.shutdown_pool()  # idempotent


class TestCrashRecovery:
    def test_lease_respawns_and_retries_once(self, tmp_path):
        before = pool.pool_stats()
        sentinel = str(tmp_path / "crashed")
        lease = pool.PoolLease(2)
        try:
            future = lease.submit(_crash_once, sentinel)
            assert lease.resolve(future, _crash_once, (sentinel,)) \
                == "survived"
        finally:
            lease.close()
        assert os.path.exists(sentinel)  # the crash really happened
        after = pool.pool_stats()
        assert after["respawns"] == before["respawns"] + 1
        assert after["retried_units"] == before["retried_units"] + 1
        assert after["active_leases"] == before["active_leases"]

    def test_crash_retry_keeps_the_pool_width(self, tmp_path):
        pool.shutdown_pool()
        pool.get_executor(3)
        before = pool.pool_stats()
        sentinel = str(tmp_path / "crashed")
        lease = pool.PoolLease(1)  # narrower than the running pool
        try:
            future = lease.submit(_crash_once, sentinel)
            assert lease.resolve(future, _crash_once, (sentinel,)) \
                == "survived"
        finally:
            lease.close()
        # Grow-only: the replacement is as wide as the pool it replaced,
        # so the next 3-wide request reuses it instead of spawning.
        assert pool.pool_stats()["workers"] == 3
        pool.get_executor(3)
        after = pool.pool_stats()
        assert after["spawns"] == before["spawns"] + 1  # the respawn only
        assert after["workers"] == 3

    def test_engine_batch_survives_worker_crash(self, tmp_path, monkeypatch):
        specs = _specs()
        serial = ExperimentEngine(jobs=1, cache_dir=None).run_specs(
            specs, use_cache=False
        )
        # Workers fork at pool (re)spawn, so the patch below is only
        # visible to workers created afterwards; the REPRO_-prefixed
        # sentinel variable forces exactly that respawn.
        monkeypatch.setenv(_SENTINEL_ENV, str(tmp_path / "crashed"))
        monkeypatch.setattr(sweep_module, "_timed_execute_unit",
                            _crash_once_unit)
        before = pool.pool_stats()
        engine = ExperimentEngine(jobs=2, cache_dir=None)
        parallel = engine.run_specs(specs, use_cache=False)
        assert parallel == serial  # the retry reproduced every result
        assert os.path.exists(str(tmp_path / "crashed"))
        after = pool.pool_stats()
        assert after["respawns"] == before["respawns"] + 1
        assert after["retried_units"] >= before["retried_units"] + 1


class TestLeaseAccounting:
    def test_failed_submit_releases_the_lease(self, monkeypatch):
        def exploding_submit(self, fn, *args):
            raise RuntimeError("worker pool died")

        monkeypatch.setattr(pool.PoolLease, "submit", exploding_submit)
        before = pool.pool_stats()["active_leases"]
        engine = ExperimentEngine(jobs=2, cache_dir=None)
        with pytest.raises(RuntimeError, match="worker pool died"):
            engine.run_specs(_specs(), use_cache=False)
        assert pool.pool_stats()["active_leases"] == before

    def test_abandon_releases_the_lease_once(self):
        before = pool.pool_stats()["active_leases"]
        engine = ExperimentEngine(jobs=2, cache_dir=None)
        pending = engine.submit_specs(_specs(), use_cache=False)
        assert not pending.done
        assert pool.pool_stats()["active_leases"] == before + 1
        pending.abandon()
        assert pool.pool_stats()["active_leases"] == before
        pending.abandon()  # a second abandon is a no-op
        assert pool.pool_stats()["active_leases"] == before


class TestOptOut:
    def test_engines_share_one_executor_when_enabled(self):
        pool.shutdown_pool()
        specs = _specs(width=4)
        before = pool.pool_stats()
        for _ in range(2):  # two engines, two sweeps, one spawn
            ExperimentEngine(jobs=2, cache_dir=None).run_specs(
                specs, use_cache=False
            )
        after = pool.pool_stats()
        assert after["spawns"] == before["spawns"] + 1
        assert after["reuses"] > before["reuses"]
        assert after["active_leases"] == before["active_leases"]
