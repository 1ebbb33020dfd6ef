"""Tests for the cache hierarchy, prefetcher and coherence."""

import dataclasses

import pytest

from repro.core.configs import base_config, m3d_het_config
from repro.lru import LruMemo
from repro.uarch import cache as cache_module
from repro.uarch.cache import (
    CacheHierarchy,
    CoherenceDirectory,
    SetAssociativeCache,
)
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_by_name


class TestSetAssociative:
    def test_hit_after_install(self):
        cache = SetAssociativeCache(1024, 2, 64)
        assert not cache.access(0)
        assert cache.access(0)

    def test_same_line_same_tag(self):
        cache = SetAssociativeCache(1024, 2, 64)
        cache.access(0)
        assert cache.access(63)  # same 64B line
        assert not cache.access(64)  # next line

    def test_lru_eviction(self):
        cache = SetAssociativeCache(2 * 64, 2, 64)  # 1 set, 2 ways
        cache.access(0)
        cache.access(64)
        cache.access(0)  # touch 0: 64 becomes LRU
        cache.access(128)  # evicts 64
        assert cache.access(0)
        assert not cache.access(64)

    def test_miss_rate_accounting(self):
        cache = SetAssociativeCache(1024, 2, 64)
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 3, 64)


class TestHierarchy:
    def test_latencies_match_config(self):
        cfg = base_config()
        caches = CacheHierarchy(cfg)
        miss = caches.data_access(1 << 30)
        assert miss.level == "DRAM"
        assert miss.latency == cfg.l3_cycles + cfg.dram_cycles
        hit = caches.data_access(1 << 30)
        assert hit.level == "L1"
        assert hit.latency == cfg.dl1_cycles

    def test_m3d_dram_costs_more_cycles(self):
        # Same 50ns, more cycles at 3.7+ GHz.
        base = CacheHierarchy(base_config()).data_access(1 << 30)
        m3d = CacheHierarchy(m3d_het_config()).data_access(1 << 30)
        assert m3d.latency > base.latency

    def test_shared_l2_capacity_doubles(self):
        private = CacheHierarchy(base_config())
        shared = CacheHierarchy(m3d_het_config(num_cores=4))
        assert shared.l2.sets == 2 * private.l2.sets

    def test_prefetcher_covers_streams(self):
        caches = CacheHierarchy(base_config())
        # Walk sequential lines: after the first miss, the prefetcher keeps
        # the next lines in L2.
        levels = [caches.data_access(64 * i).level for i in range(32)]
        dram = levels.count("DRAM")
        assert dram < 12  # far fewer than 32 without a prefetcher

    def test_preload_establishes_residency(self):
        caches = CacheHierarchy(base_config())
        lines = [4096 + 64 * i for i in range(32)]
        caches.preload(lines, [])
        assert caches.data_access(4096).level == "L1"

    def test_preload_code_last_wins_l2(self):
        caches = CacheHierarchy(base_config())
        data = [1 << 20 | (64 * i) for i in range(8192)]  # 512KB of data
        code = [4096 + 32 * i for i in range(256)]  # 8KB of code
        caches.preload(data, code)
        assert caches.fetch(4096).level == "L1"

    def test_preload_needs_an_untouched_hierarchy(self):
        lines = [4096 + 64 * i for i in range(32)]
        twice = CacheHierarchy(base_config())
        twice.preload(lines, [])
        with pytest.raises(ValueError, match="untouched"):
            twice.preload(lines, [])
        touched = CacheHierarchy(base_config())
        touched.data_access(1 << 30)
        with pytest.raises(ValueError, match="untouched"):
            touched.preload(lines, [])

    def test_fetch_path_levels(self):
        caches = CacheHierarchy(base_config())
        first = caches.fetch(1 << 25)
        assert first.level == "DRAM"
        assert caches.fetch(1 << 25).level == "L1"


class TestCoherence:
    def test_remote_dirty_costs_transfer(self):
        directory = CoherenceDirectory()
        cfg = base_config(num_cores=2)
        core0 = CacheHierarchy(cfg, core_id=0, coherence=directory)
        core1 = CacheHierarchy(cfg, core_id=1, coherence=directory)
        core0.data_access(4096, is_store=True)
        before = directory.transfers
        core1.data_access(4096)
        assert directory.transfers == before + 1

    def test_own_line_free(self):
        directory = CoherenceDirectory()
        cfg = base_config()
        core0 = CacheHierarchy(cfg, core_id=0, coherence=directory)
        core0.data_access(4096, is_store=True)
        core0.data_access(4096)
        assert directory.transfers == 0

    def test_store_claims_ownership(self):
        directory = CoherenceDirectory()
        cfg = base_config(num_cores=2)
        core0 = CacheHierarchy(cfg, core_id=0, coherence=directory)
        core1 = CacheHierarchy(cfg, core_id=1, coherence=directory)
        core0.data_access(4096, is_store=True)
        core1.data_access(4096, is_store=True)  # transfer + invalidation
        assert directory.invalidations == 1
        core1.data_access(4096)  # now owned locally
        assert directory.transfers == 1


class TestPerLevelWarmSnapshots:
    """``CacheHierarchy.preload`` memoizes each level's warm state on its
    own key, so the two L2 geometries share IL1, DL1 and L3."""

    @staticmethod
    def replayed(cache, streams):
        """Reference warm state: every resident line accessed in order."""
        for lines in streams:
            for address in lines:
                cache.access(address)
        return cache._lines

    def test_levels_match_replay_and_are_built_once(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_PRELOAD_SNAPSHOTS",
                            LruMemo(cap=256))
        builds = []
        original = cache_module._distribute_tags

        def counting(newest_first, sets, ways):
            builds.append((sets, ways))
            return original(newest_first, sets, ways)

        monkeypatch.setattr(cache_module, "_distribute_tags", counting)
        trace = generate_trace(spec_by_name()["Hmmer"], 200)
        data, code = trace.resident_data, trace.resident_code
        for shared_l2 in (False, True):
            config = dataclasses.replace(base_config(), shared_l2=shared_l2)
            hierarchy = CacheHierarchy(config)
            hierarchy.preload(data, code)
            cold = CacheHierarchy(config)
            for level, streams in ((hierarchy.il1, (code,)),
                                   (hierarchy.dl1, (data,)),
                                   (hierarchy.l2, (data, code)),
                                   (hierarchy.l3, (data, code))):
                reference = getattr(cold, level.name.lower())
                assert level._lines == self.replayed(reference, streams), (
                    level.name, shared_l2)
                assert level.accesses == level.misses == 0
        shape = CacheHierarchy(base_config())
        for level in (shape.il1, shape.dl1, shape.l3):
            assert builds.count((level.sets, level.ways)) == 1, level.name
        assert len(builds) == 5  # IL1, DL1, L3 and one L2 per geometry

    def test_restored_state_is_a_private_copy(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_PRELOAD_SNAPSHOTS",
                            LruMemo(cap=256))
        data = [(1 << 34) + 64 * i for i in range(64)]
        code = [4096 + 32 * i for i in range(64)]

        def levels(hierarchy):
            return (hierarchy.il1, hierarchy.dl1, hierarchy.l2, hierarchy.l3)

        first = CacheHierarchy(base_config())
        first.preload(data, code)
        warm = [[list(line) for line in level._lines]
                for level in levels(first)]
        for level in levels(first):
            level.access(1 << 30)  # mutate the restored per-set lists
        second = CacheHierarchy(base_config())
        second.preload(data, code)
        assert [level._lines for level in levels(second)] == warm

    def test_snapshot_memo_stays_at_its_cap(self, monkeypatch):
        memo = LruMemo(cap=3)
        monkeypatch.setattr(cache_module, "_PRELOAD_SNAPSHOTS", memo)
        code = [4096 + 32 * i for i in range(64)]
        for k in range(3):
            data = [((k + 1) << 34) + 64 * i for i in range(64)]
            CacheHierarchy(base_config()).preload(data, code)
            assert len(memo) == 3
