"""Tests for the ring NoC and the multicore barrier-aligned model."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.design.resolve import resolve
from repro.obs import ModelDisagreementWarning
from repro.uarch import multicore
from repro.uarch.multicore import (
    BARRIER_OVERHEAD_CYCLES,
    _align_barriers,
    _tile_result,
    _work_shares,
    evaluate_tiles,
    run_parallel_batch,
    run_parallel_tiles,
)
from repro.uarch.noc import RingNoc
from repro.workloads import generator
from repro.workloads.generator import generate_trace, memoized_trace
from repro.workloads.parallel import parallel_by_name
from repro.workloads.spec import spec_by_name

BASE = resolve("Base").config
HET = resolve("M3D-Het").config
HET_2X = resolve("M3D-Het-2X").config


@pytest.fixture(scope="module")
def water():
    return parallel_by_name()["Water-Spatial"]


@pytest.fixture(scope="module")
def base4():
    return resolve("Base-4C").config


class TestRingNoc:
    def test_stop_count(self):
        assert RingNoc(4).num_stops == 4
        assert RingNoc(4, shared_stops=True).num_stops == 2
        assert RingNoc(8, shared_stops=True).num_stops == 4

    def test_shared_stops_cut_latency(self):
        # Figure 4: halved stop count and link length.
        assert RingNoc(4, shared_stops=True).average_latency < RingNoc(
            4
        ).average_latency

    def test_latency_grows_with_cores(self):
        assert RingNoc(8).average_latency > RingNoc(2).average_latency

    def test_link_energy_drops_when_folded(self):
        assert RingNoc(4, shared_stops=True).link_energy_per_flit() < RingNoc(
            4
        ).link_energy_per_flit()

    def test_needs_cores(self):
        with pytest.raises(ValueError):
            RingNoc(0)

    def test_odd_core_count_shared_stops(self):
        # Odd core counts round the stop count up: the unpaired core
        # still needs a stop.
        assert RingNoc(5, shared_stops=True).num_stops == 3
        assert RingNoc(1, shared_stops=True).num_stops == 1
        assert RingNoc(1, shared_stops=True).average_latency >= 1


class TestMulticore:
    def test_runs_all_cores(self, water, base4):
        result = run_parallel_tiles([base4] * 4, water, 16000)
        assert len(result.per_core) == 4
        assert result.cycles > 0

    def test_rejects_sequential_profile(self, base4):
        with pytest.raises(ValueError):
            run_parallel_tiles([base4] * 4, spec_by_name()["Mcf"], 8000)

    def test_barrier_alignment_never_faster_than_slowest(self, water,
                                                         base4):
        result = run_parallel_tiles([base4] * 4, water, 16000)
        slowest = max(core.cycles for core in result.per_core)
        assert result.cycles >= slowest

    def test_barrier_wait_nonnegative(self, water, base4):
        result = run_parallel_tiles([base4] * 4, water, 16000)
        assert result.barrier_wait_cycles >= 0

    def test_more_cores_less_per_core_work(self, water, base4):
        four = run_parallel_tiles([base4] * 4, water, 16000)
        eight = run_parallel_tiles([HET_2X] * 8, water, 16000)
        assert eight.per_core[0].stats.uops < four.per_core[0].stats.uops

    def test_het_2x_near_double(self, water, base4):
        # The headline result: twice the cores at iso power -> ~1.9x.
        base = run_parallel_tiles([base4] * 4, water, 16000)
        twice = run_parallel_tiles([HET_2X] * 8, water, 16000)
        assert twice.speedup_over(base) > 1.5

    def test_m3d_het_beats_base(self, water, base4):
        base = run_parallel_tiles([base4] * 4, water, 16000)
        het = run_parallel_tiles([resolve("M3D-Het-4C").config] * 4, water,
                                 16000)
        assert het.speedup_over(base) > 1.0

    def test_coherence_traffic_observed(self, water, base4):
        result = run_parallel_tiles([base4] * 4, water, 16000)
        assert result.coherence_transfers > 0

    def test_deterministic(self, water, base4):
        first = run_parallel_tiles([base4] * 4, water, 8000, seed=7)
        second = run_parallel_tiles([base4] * 4, water, 8000, seed=7)
        assert first.cycles == second.cycles


class TestUopConservation:
    """A tile list must execute exactly the requested total work: the
    old ``max(1000, total_uops // cores)`` share dropped remainders and
    inflated tiny sweeps."""

    @pytest.mark.parametrize("total", [16000, 1603, 4001, 7, 4])
    def test_total_work_conserved(self, water, base4, total):
        result = run_parallel_tiles([base4] * 4, water, total)
        assert result.requested_uops == total
        assert result.total_uops == total
        assert sum(core.stats.uops for core in result.per_core) == total

    def test_remainder_spread_evenly(self, water, base4):
        result = run_parallel_tiles([base4] * 4, water, 4001)
        shares = [core.stats.uops for core in result.per_core]
        assert max(shares) - min(shares) <= 1

    def test_tiny_request_rounds_up_to_core_count(self, water, base4):
        # Fewer uops than cores: every core still runs one uop, and the
        # inflation is visible in requested-vs-measured.
        result = run_parallel_tiles([base4] * 4, water, 3)
        assert result.requested_uops == 3
        assert result.total_uops == 4
        assert all(core.stats.uops == 1 for core in result.per_core)


class TestWorkShares:
    def test_identical_tiles_split_evenly(self):
        tiles = [BASE] * 4
        assert _work_shares(4001, tiles) == [1001, 1000, 1000, 1000]

    def test_weighted_shares_conserve_total(self):
        tiles = [BASE, HET, HET_2X]
        for total in (16000, 1603):
            shares = _work_shares(total, tiles)
            assert sum(shares) == total
            assert all(share >= 1 for share in shares)
        # Fewer uops than tiles: the per-tile floor inflates the total.
        assert all(share >= 1 for share in _work_shares(2, tiles))

    def test_weighted_shares_track_capability(self):
        slow = BASE
        fast = dataclasses.replace(
            slow, name="fast", frequency=slow.frequency * 2,
        )
        shares = _work_shares(30000, [slow, fast])
        assert shares == [10000, 20000]

    def test_issue_width_weighs_in(self):
        narrow = BASE
        wide = dataclasses.replace(
            narrow, name="wide", issue_width=narrow.issue_width * 2,
        )
        shares = _work_shares(9000, [narrow, wide])
        assert shares[1] == 2 * shares[0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _work_shares(100, [])


def _fake_run(cycles, markers):
    """A SimResult stand-in with just what barrier alignment reads."""
    return SimpleNamespace(
        cycles=cycles,
        stats=SimpleNamespace(sync_commit_cycles=list(markers), uops=0),
    )


class TestBarrierAlignment:
    def test_homogeneous_no_drop(self):
        runs = [_fake_run(100, [40]), _fake_run(90, [50])]
        total, wait, dropped = _align_barriers(runs)
        assert dropped == 0
        # Phase 0: max(40, 50); phase 1: max(60, 40); + 2 barriers.
        assert total == 50 + 60 + 2 * BARRIER_OVERHEAD_CYCLES
        assert wait == (50 - 40) + (60 - 40)

    def test_truncation_counts_dropped_phases(self):
        # One core saw two barriers, the other one: alignment truncates
        # to two phases and reports the dropped tail.
        runs = [_fake_run(100, [40, 80]), _fake_run(90, [50])]
        _, _, dropped = _align_barriers(runs)
        assert dropped == 1

    def test_hetero_frequencies_rescale_to_fastest(self):
        runs = [_fake_run(100, []), _fake_run(100, [])]
        total, _, _ = _align_barriers(runs, frequencies=[1e9, 2e9])
        # The 1 GHz core's 100 cycles are 200 reference cycles.
        assert total == 200 + BARRIER_OVERHEAD_CYCLES

    def test_dropped_phases_warn_and_land_on_result(self):
        tiles = [BASE, BASE]
        runs = [_fake_run(100, [40, 80]), _fake_run(90, [50])]
        profile = SimpleNamespace(name="fake-app")
        with pytest.warns(ModelDisagreementWarning, match="dropped 1 tail"):
            result = _tile_result(tiles, profile, 200, runs, 0, 2, None)
        assert result.dropped_phases == 1

    def test_aligned_runs_do_not_warn(self, recwarn):
        tiles = [BASE, BASE]
        runs = [_fake_run(100, [40]), _fake_run(90, [50])]
        result = _tile_result(
            tiles, SimpleNamespace(name="fake-app"), 200, runs, 0, 2, None,
        )
        assert result.dropped_phases == 0
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, ModelDisagreementWarning)
        ]


class TestKernelTilesMatchOracle:
    """The kernel's tile path returns exactly the scalar per-tile
    oracle's result, every field, on tiles at two clocks."""

    def test_kernel_path_matches_oracle(self, water):
        tiles = [BASE, HET, BASE, HET]
        oracle = run_parallel_tiles(tiles, water, 6000)
        kernel = evaluate_tiles(tiles, water, 6000)
        assert oracle == kernel


class TestHeteroTiles:
    def test_mixed_tiles_run(self, water):
        tiles = [BASE, HET]
        result = run_parallel_tiles(tiles, water, 8000)
        assert len(result.per_core) == 2
        assert result.config_name == "2-tile-mix"
        assert result.cycles > 0

    def test_reference_clock_is_fastest_tile(self, water):
        tiles = [BASE, HET]
        result = run_parallel_tiles(tiles, water, 8000)
        assert result.frequency == max(t.frequency for t in tiles)

    def test_faster_tile_gets_more_work(self, water):
        slow = BASE
        fast = dataclasses.replace(
            slow, name="fast", frequency=slow.frequency * 2,
        )
        result = run_parallel_tiles([slow, fast], water, 9000)
        uops = [core.stats.uops for core in result.per_core]
        assert uops[1] > uops[0]
        assert sum(uops) == 9000


def _clear_multicore_memos():
    generator._TRACES.clear()
    generator._STREAMS.clear()
    multicore._MC_IMAGE_MEMO.clear()


class TestSharedTraceStreams:
    """Shorter core shares are prefixes of one memoized stream per
    (profile, seed, thread), the one :func:`memoized_trace` keeps."""

    @pytest.mark.parametrize("core_counts", [(8, 4), (4, 8)])
    def test_lookup_order_does_not_change_traces(self, water, core_counts):
        _clear_multicore_memos()
        total = 4800
        for cores in core_counts:
            tiles = [BASE] * cores
            for thread, share in enumerate(_work_shares(total, tiles)):
                trace = memoized_trace(water, share, 1234, thread)
                assert trace == generate_trace(water, share, seed=1234,
                                               thread=thread)
        _clear_multicore_memos()

    @pytest.mark.parametrize("order", [1, -1])
    def test_mixed_core_batch_generates_each_stream_once(
            self, water, monkeypatch, order):
        _clear_multicore_memos()
        calls = []
        original = generator.generate_trace

        def counting(profile, num_uops, **kwargs):
            calls.append((num_uops, kwargs.get("thread")))
            return original(profile, num_uops, **kwargs)

        monkeypatch.setattr(generator, "generate_trace", counting)
        four = resolve("Base-4C").config
        eight = HET_2X
        assert (four.num_cores, eight.num_cores) == (4, 8)
        configs = [four, eight][::order]
        batch = run_parallel_batch(configs, water, 4800)
        # Threads 0-3 of the 8-core split are prefixes of the 4-core
        # traces, whichever config comes first: 4 + 4 streams, not 12.
        assert sorted(calls, key=lambda call: call[1]) == (
            [(1200, thread) for thread in range(4)]
            + [(600, thread) for thread in range(4, 8)]
        )
        monkeypatch.undo()
        assert batch == [
            run_parallel_tiles([config] * config.num_cores, water, 4800)
            for config in configs
        ]
        _clear_multicore_memos()
