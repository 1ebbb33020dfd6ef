"""Tests for the shared experiment engine (cache + sweep runner)."""

import dataclasses
import pickle

import pytest

from repro.core.configs import CoreConfig
from repro.design.point import DesignPoint
from repro.design.resolve import (
    paper_multicore_configs,
    paper_single_core_configs,
    resolve,
)
from repro.design.space import SpaceSpec
from repro.engine import (
    ExperimentEngine,
    ResultCache,
    SimSpec,
    code_fingerprint,
    make_key,
)
from repro.engine import cache as cache_module
from repro.engine.sweep import configure, get_engine, suite_specs
from repro.explore.store import point_key
from repro.lru import LruMemo
from repro.obs import run_record
from repro.workloads.parallel import parallel_profiles
from repro.workloads.spec import spec_profiles
from tests.references import reference_key, spec_reference_key, workloads

UOPS = 600
BASE = resolve("Base").config


def _profiles(n=2):
    return spec_profiles()[:n]


def _configs(n=2):
    return paper_single_core_configs()[:n]


class TestCacheKeys:
    def test_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_fingerprint_covers_the_timing_loop_source(self, tmp_path):
        """Editing ``timing.c`` must change the digest, or an on-disk
        cache would serve results an older compiled loop computed."""
        import shutil
        from pathlib import Path

        import repro

        copy = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).resolve().parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert cache_module.source_digest(copy) == code_fingerprint()
        with open(copy / "uarch" / "timing.c", "a") as source:
            source.write("/* edited */\n")
        assert cache_module.source_digest(copy) != code_fingerprint()

    def test_key_includes_all_inputs(self):
        profile = _profiles(1)[0]
        spec = SimSpec("single", BASE, profile, UOPS, seed=1)
        assert spec.cache_key() == spec.cache_key()
        variants = [
            SimSpec("single", resolve("M3D-Het").config, profile, UOPS, seed=1),
            SimSpec("single", BASE, profile, UOPS + 1, seed=1),
            SimSpec("single", BASE, profile, UOPS, seed=2),
            SimSpec("multicore", BASE, profile, UOPS, seed=1),
        ]
        keys = {spec.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == 5  # every input perturbs the key

    def test_key_sensitive_to_profile(self):
        a, b = _profiles(2)
        cfg = BASE
        assert (
            SimSpec("single", cfg, a, UOPS).cache_key()
            != SimSpec("single", cfg, b, UOPS).cache_key()
        )

    def test_make_key_rejects_unkeyable_values(self):
        with pytest.raises(TypeError):
            make_key("bad", value=object())

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SimSpec("both", BASE, _profiles(1)[0], UOPS)


class TestKeyFragmentMemo:
    """``make_key`` canonicalises each dataclass part once and splices the
    memoized fragment in; every key must stay byte-identical to the
    reference, on the first build and on every memo hit."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_PART_JSON",
                            LruMemo(cap=cache_module._PART_JSON.cap))

    def test_report_suite_keys_match_reference(self):
        specs = suite_specs(
            "single", workloads.REPORT_UOPS, 1234,
            paper_single_core_configs(), spec_profiles(),
        ) + suite_specs(
            "multicore", workloads.REPORT_MULTICORE_UOPS, 1234,
            paper_multicore_configs(), parallel_profiles(),
        )
        assert len(specs) == 21 * 6 + 15 * 5
        for _ in range(2):  # built, then served from the memo
            for spec in specs:
                assert spec.cache_key() == spec_reference_key(spec)

    def test_explore_point_keys_match_reference(self):
        space = SpaceSpec.from_dict(workloads.EXPLORE_SPACE)
        points = list(space.points())
        assert len(points) == workloads.EXPLORE_POINTS
        sizes = {"uops": workloads.EXPLORE_UOPS, "seed": 1234, "grid": 8,
                 "apps": workloads.EXPLORE_APPS}
        for point in points:
            fields = point.to_dict()
            for cosmetic in ("name", "description", "group"):
                fields.pop(cosmetic)
            assert point_key(point, **sizes) == reference_key(
                "explore:point", point=fields, **sizes)

    def test_type_variants_keep_distinct_keys(self):
        # Dataclass equality says 1 == 1.0 == True and 0.0 == -0.0; the
        # canonical JSON does not, so neither may the memo.
        configs = [dataclasses.replace(BASE, vdd=vdd)
                   for vdd in (1.0, 1, True)]
        points = [DesignPoint(name="variant", stack="M3D",
                              top_layer_slowdown=slowdown)
                  for slowdown in (0.0, -0.0)]
        nan = dataclasses.replace(BASE, vdd=float("nan"))
        parts = ([{"config": c} for c in configs]
                 + [{"point": p} for p in points] + [{"config": nan}]
                 + [{"config": configs[0], "extra": [1, {"b": 2.5, "a": None}],
                     "label": "é\n"}])
        for _ in range(2):
            keys = [make_key("variant", **part) for part in parts]
            assert keys == [reference_key("variant", **part)
                            for part in parts]
            assert len(set(keys)) == len(keys)

    def test_memo_holds_at_its_cap(self, monkeypatch):
        cap = cache_module._PART_JSON.cap
        assert cap == 1024
        builds = []
        real = cache_module._canonical

        def counting(value):
            if isinstance(value, CoreConfig):
                builds.append(value.name)
            return real(value)

        monkeypatch.setattr(cache_module, "_canonical", counting)
        configs = [dataclasses.replace(BASE, name=f"cap-{i}")
                   for i in range(cap + 1)]
        keys = [make_key("cap", config=config) for config in configs]
        assert len(cache_module._PART_JSON) == cap
        assert len(builds) == cap + 1
        # The newest fragment is still cached; the oldest was evicted and
        # rebuilds to the same key.
        assert make_key("cap", config=configs[-1]) == keys[-1]
        assert len(builds) == cap + 1
        assert make_key("cap", config=configs[0]) == keys[0]
        assert len(builds) == cap + 2
        assert len(cache_module._PART_JSON) == cap


class TestResultCache:
    def test_memory_roundtrip(self):
        cache = ResultCache()
        hit, _ = cache.get("k")
        assert not hit
        cache.put_many([("k", {"x": 1})])
        hit, value = cache.get("k")
        assert hit and value == {"x": 1}
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_disk_roundtrip(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put_many([("deadbeef", [1, 2, 3])])
        second = ResultCache(tmp_path)  # fresh memory, same directory
        hit, value = second.get("deadbeef")
        assert hit and value == [1, 2, 3]
        assert second.stats.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        import sqlite3

        from repro.engine.cache import DB_FILENAME

        cache = ResultCache(tmp_path)
        cache.put_many([("deadbeef", [1])])
        cache.close()
        with sqlite3.connect(tmp_path / DB_FILENAME) as conn:
            conn.execute("UPDATE results SET value = ? WHERE key = ?",
                         (b"not a pickle", "deadbeef"))
        fresh = ResultCache(tmp_path)
        hit, _ = fresh.get("deadbeef")
        assert not hit
        # The bad row was dropped, not left to fail on every lookup.
        with sqlite3.connect(tmp_path / DB_FILENAME) as conn:
            rows = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        assert rows == 0

    def test_corrupt_database_file_is_rebuilt(self, tmp_path):
        from repro.engine.cache import DB_FILENAME

        (tmp_path / DB_FILENAME).write_bytes(b"this is not a database")
        cache = ResultCache(tmp_path)  # must not raise
        cache.put_many([("deadbeef", [1])])
        fresh = ResultCache(tmp_path)
        hit, value = fresh.get("deadbeef")
        assert hit and value == [1]

    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 8])
    def test_memory_eviction_keeps_recent(self, cap):
        """The memory layer holds at most ``cap`` entries, newest first
        (regression: below a cap of 4 the evicted quarter was empty, so
        the layer grew without bound)."""
        cache = ResultCache(max_memory_entries=cap)
        for i in range(100):
            cache.put_many([(f"k{i}", i)])
            assert len(cache._memory) <= cap
        hit, value = cache.get("k99")
        assert hit and value == 99
        hit, _ = cache.get("k0")
        assert not hit  # oldest evicted

    def test_memory_cap_below_one_is_refused(self):
        with pytest.raises(ValueError, match="max_memory_entries"):
            ResultCache(max_memory_entries=0)

    def test_disk_full_degrades_to_memory_only(self, tmp_path, monkeypatch):
        """A full disk (SQLITE_FULL on commit) must not kill the sweep:
        the put degrades to memory-only, warns once, and is counted."""
        import sqlite3

        cache = ResultCache(tmp_path)

        def full_disk(*args, **kwargs):
            raise sqlite3.OperationalError("database or disk is full")

        monkeypatch.setattr(cache._disk, "put_many", full_disk)
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache.put_many([("deadbeef", [1, 2, 3])])
        cache.put_many([("cafef00d", [4])])  # second failure: no re-warn
        assert cache.stats.disk_put_failures == 2
        assert cache.stats.stores == 2
        hit, value = cache.get("deadbeef")
        assert hit and value == [1, 2, 3]  # memory layer still serves it
        fresh = ResultCache(tmp_path)
        assert not fresh.get("deadbeef")[0]  # nothing landed on disk

    def test_unpicklable_value_degrades_to_memory_only(self, tmp_path):
        """A result that cannot be pickled (regression: a store used to
        let the pickle error propagate out of the sweep) must degrade to
        memory-only exactly like a full disk."""
        cache = ResultCache(tmp_path)
        value = {"closure": lambda: None}  # functions don't pickle
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache.put_many([("deadbeef", value)])
        assert cache.stats.disk_put_failures == 1
        assert cache.stats.stores == 1
        hit, served = cache.get("deadbeef")
        assert hit and served is value  # memory layer still serves it
        fresh = ResultCache(tmp_path)
        assert not fresh.get("deadbeef")[0]  # no torn row left behind

    def test_memory_hit_refreshes_recency(self):
        """True LRU (regression: eviction used to be insertion-order, so
        a hot entry read every batch was still evicted first): a re-read
        entry must survive the eviction that drops the stale quarter."""
        cache = ResultCache(max_memory_entries=8)
        for i in range(8):
            cache.put_many([(f"k{i}", i)])
        hit, _ = cache.get("k0")  # refresh: k0 is now most recent
        assert hit
        cache.put_many([("k8", 8)])  # over capacity: evicts the stale quarter
        hit, value = cache.get("k0")
        assert hit and value == 0  # survived: it was recently used
        hit, _ = cache.get("k1")
        assert not hit  # the actually-stale entry went instead

    def test_failed_write_resumes_when_disk_recovers(self, tmp_path,
                                                     monkeypatch):
        import sqlite3

        cache = ResultCache(tmp_path)
        real_put = cache._disk.put_many
        monkeypatch.setattr(
            cache._disk, "put_many",
            lambda *a, **k: (_ for _ in ()).throw(
                sqlite3.OperationalError("database or disk is full")),
        )
        with pytest.warns(RuntimeWarning):
            cache.put_many([("deadbeef", [1])])
        monkeypatch.setattr(cache._disk, "put_many", real_put)
        cache.put_many([("cafef00d", [2])])  # disk recovered
        assert cache.stats.disk_put_failures == 1
        fresh = ResultCache(tmp_path)
        hit, value = fresh.get("cafef00d")
        assert hit and value == [2]


def _suite():
    return suite_specs("single", UOPS, 1234, _configs(), _profiles())


class TestEngineExecution:
    def test_cached_rerun_identical_and_free(self):
        engine = ExperimentEngine(jobs=1)
        fresh = engine.run_specs(_suite())
        sims = engine.cache.stats.stores
        assert sims == len(_configs()) * len(_profiles())
        cached = engine.run_specs(_suite())
        assert engine.cache.stats.stores == sims  # nothing re-simulated
        for result, expected in zip(cached, fresh):
            assert result.cycles == expected.cycles
            assert result.stats == expected.stats

    def test_parallel_matches_serial(self):
        serial = ExperimentEngine(jobs=1)
        parallel = ExperimentEngine(jobs=4)
        expected = serial.run_specs(_suite())
        actual = parallel.run_specs(_suite())
        assert [r.config_name for r in actual] == \
            [r.config_name for r in expected]  # deterministic ordering
        for result, reference in zip(actual, expected):
            assert result.cycles == reference.cycles
            assert result.stats == reference.stats

    def test_warm_disk_cache_skips_all_simulation(self, tmp_path):
        first = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        expected = first.run_specs(_suite())
        second = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        warmed = second.run_specs(_suite())
        assert second.cache.stats.misses == 0
        assert second.cache.stats.stores == 0
        for result, reference in zip(warmed, expected):
            assert result.cycles == reference.cycles

    def test_single_simulation_is_cached(self):
        engine = ExperimentEngine(jobs=1)
        spec = SimSpec("single", BASE, _profiles(1)[0], UOPS)
        [first] = engine.run_specs([spec])
        [second] = engine.run_specs([spec])
        assert first.cycles == second.cycles
        assert engine.cache.stats.stores == 1

    def test_results_survive_pickling(self):
        engine = ExperimentEngine(jobs=1)
        [result] = engine.run_specs(
            [SimSpec("single", BASE, _profiles(1)[0], UOPS)])
        clone = pickle.loads(pickle.dumps(result))
        assert clone.cycles == result.cycles
        assert clone.stats == result.stats

    def test_cache_dir_and_cache_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentEngine(cache=ResultCache(), cache_dir=tmp_path)

    @pytest.mark.parametrize("mode, profile, uops", [
        ("single", spec_profiles()[0], UOPS),
        ("multicore", parallel_profiles()[0], 2400),
    ])
    def test_singleton_group_runs_through_the_kernel(self, mode, profile,
                                                     uops, monkeypatch):
        from repro.engine.sweep import execute_spec, execute_spec_group

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        config = (paper_multicore_configs()[-1] if mode == "multicore"
                  else BASE)
        spec = SimSpec(mode, config, profile, uops)
        results, used_kernel = execute_spec_group([spec])
        assert used_kernel
        assert results == [execute_spec(spec)]


class TestSharding:
    """A lone trace group at ``jobs=2`` leaves a worker idle, so a wide
    single-core group is split into shards of at least two configs."""

    @pytest.mark.parametrize("width, units", [(1, 1), (2, 1), (7, 2)])
    def test_one_group_matches_serial(self, width, units, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        configs = [
            dataclasses.replace(config, name=f"{config.name}-v{k}",
                                rob_entries=config.rob_entries + k)
            for k in range(2) for config in paper_single_core_configs()
        ][:width]
        specs = [SimSpec("single", config, _profiles(1)[0], UOPS)
                 for config in configs]
        serial = ExperimentEngine(jobs=1).run_specs(specs, use_cache=False)
        with run_record() as record:
            sharded = ExperimentEngine(jobs=2).run_specs(specs,
                                                         use_cache=False)
        assert sharded == serial  # every spec's result lands, in order
        assert len(record.kernel_batches) == units
        assert sum(batch.width for batch in record.kernel_batches) == width


class TestDefaultEngine:
    def test_configure_replaces_engine(self):
        original = get_engine()
        try:
            replaced = configure(jobs=3)
            assert get_engine() is replaced
            assert replaced.jobs == 3
            kept = configure(cache_dir=None)
            assert kept.jobs == 3  # jobs=None keeps the previous setting
        finally:
            import repro.engine.sweep as sweep

            sweep._default_engine = original
