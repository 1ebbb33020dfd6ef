"""Tests for the out-of-order core timing model."""

import dataclasses

import pytest

from repro.design.resolve import resolve
from repro.uarch import ooo
from repro.uarch.isa import MicroOp, OpClass, Trace
from repro.uarch.ooo import (
    _FuPool,
    _PerCycleBandwidth,
    _WidthLimiter,
    run_trace,
)
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_by_name

BASE = resolve("Base").config


def make_trace(ops, warmup=0):
    return Trace(name="unit", ops=ops, warmup_ops=warmup)


def alu(src1=None, src2=None):
    # A fixed PC keeps the synthetic kernel's instruction fetches hot —
    # unit tests probe the back end, not cold-start fetch misses.
    return MicroOp(op=OpClass.ALU, src1=src1, src2=src2, pc=4096)


class TestLimiters:
    def test_width_limiter_in_order(self):
        limiter = _WidthLimiter(2)
        assert limiter.allocate(0) == 0
        assert limiter.allocate(0) == 0
        assert limiter.allocate(0) == 1  # third op spills to next cycle

    def test_width_limiter_monotonic(self):
        limiter = _WidthLimiter(1)
        assert limiter.allocate(5) == 5
        # In-order stage: an "earlier-ready" op still goes later.
        assert limiter.allocate(3) == 6

    def test_per_cycle_bandwidth_out_of_order(self):
        limiter = _PerCycleBandwidth(1)
        assert limiter.allocate(5) == 5
        # OOO stage: an earlier-ready op may use an earlier cycle.
        assert limiter.allocate(3) == 3

    def test_per_cycle_bandwidth_cap(self):
        limiter = _PerCycleBandwidth(2)
        assert limiter.allocate(1) == 1
        assert limiter.allocate(1) == 1
        assert limiter.allocate(1) == 2

    def test_fu_pool_pipelined(self):
        pool = _FuPool(1)
        assert pool.reserve(0, busy=1) == 0
        assert pool.reserve(0, busy=1) == 1  # next cycle, same unit

    def test_fu_pool_blocking(self):
        pool = _FuPool(1)
        assert pool.reserve(0, busy=4) == 0
        assert pool.reserve(0, busy=4) == 4  # divide blocks the unit


class TestPipeline:
    def test_independent_ops_reach_width_limit(self):
        ops = [alu() for _ in range(4000)]
        result = run_trace(BASE, make_trace(ops))
        # Dispatch width 4 caps IPC; independent ALU ops should get close.
        assert result.ipc > 3.0

    def test_serial_chain_is_ipc_one(self):
        ops = [alu(src1=1 if i else None) for i in range(2000)]
        result = run_trace(BASE, make_trace(ops))
        assert result.ipc == pytest.approx(1.0, abs=0.1)

    def test_divides_throttle_throughput(self):
        ops = [MicroOp(op=OpClass.DIV, pc=4096) for _ in range(500)]
        result = run_trace(BASE, make_trace(ops))
        # 2 divide units, each blocked 4 cycles -> at most 0.5/cycle.
        assert result.ipc <= 0.55

    def test_fp_div_issue_interval(self):
        ops = [MicroOp(op=OpClass.FP_DIV, pc=4096) for _ in range(64)]
        result = run_trace(BASE, make_trace(ops))
        # One FP divide may issue every 8 cycles (Table 9).
        assert result.ipc <= 0.13 + 0.02

    def test_load_to_use_cut_speeds_up_chains(self):
        # Loads feeding dependent ALUs: the 3D designs' 1-cycle saving
        # shows directly.
        ops = []
        for i in range(1500):
            ops.append(
                MicroOp(op=OpClass.LOAD, address=64 * (i % 32), pc=4096)
            )
            ops.append(alu(src1=1))
        base = run_trace(BASE, make_trace(list(ops)))
        cfg = dataclasses.replace(
            BASE, load_to_use_cycles=3, name="cut"
        )
        cut = run_trace(cfg, make_trace(list(ops)))
        assert cut.cycles < base.cycles

    def test_mispredicts_inject_bubbles(self):
        import random
        rng = random.Random(11)
        taken_wrong = [
            MicroOp(op=OpClass.BRANCH, pc=4096, taken=rng.random() < 0.5)
            for i in range(800)
        ]
        predictable = [
            MicroOp(op=OpClass.BRANCH, pc=4096, taken=True) for i in range(800)
        ]
        chaotic = run_trace(BASE, make_trace(taken_wrong))
        steady = run_trace(BASE, make_trace(predictable))
        assert chaotic.cycles > steady.cycles
        assert chaotic.stats.mispredictions > steady.stats.mispredictions

    def test_shorter_mispredict_path_helps(self):
        import random
        rng = random.Random(9)
        ops = [
            MicroOp(op=OpClass.BRANCH, pc=4096 + 8 * (i % 16),
                    taken=rng.random() < 0.5)
            for i in range(2000)
        ]
        base = run_trace(BASE, make_trace(list(ops)))
        cfg = dataclasses.replace(
            BASE, branch_mispredict_cycles=12, name="short"
        )
        short = run_trace(cfg, make_trace(list(ops)))
        assert short.cycles < base.cycles

    def test_rob_limits_mlp_window(self):
        # Independent DRAM misses overlap within the ROB window.
        ops = [
            MicroOp(op=OpClass.LOAD, address=(1 << 28) + 4096 * i, pc=4096)
            for i in range(600)
        ]
        wide = run_trace(BASE, make_trace(list(ops)))
        tiny = dataclasses.replace(BASE, rob_entries=8, name="tiny")
        narrow = run_trace(tiny, make_trace(list(ops)))
        assert narrow.cycles > wide.cycles

    def test_complex_decode_penalty_hetero_only(self):
        ops = [MicroOp(op=OpClass.COMPLEX, pc=4096) for _ in range(1000)]
        base = run_trace(BASE, make_trace(list(ops)))
        het = run_trace(resolve("M3D-Het").config, make_trace(list(ops)))
        # The +1 cycle is per complex op but pipelined; just confirm it
        # does not crash and the counter is kept.
        assert het.stats.complex_decodes == 1000
        assert base.stats.complex_decodes == 1000

    def test_warmup_prefix_excluded_from_stats(self):
        ops = [alu() for _ in range(100)] + [alu() for _ in range(200)]
        result = run_trace(BASE, make_trace(ops, warmup=100))
        assert result.stats.uops == 200

    def test_sync_markers_recorded(self):
        ops = [alu() for _ in range(50)]
        ops.append(MicroOp(op=OpClass.SYNC, barrier=0))
        ops.extend(alu() for _ in range(50))
        result = run_trace(BASE, make_trace(ops))
        assert len(result.stats.sync_commit_cycles) == 1

    def test_speedup_over_is_time_ratio(self):
        ops = [alu() for _ in range(2000)]
        base = run_trace(BASE, make_trace(list(ops)))
        iso = run_trace(resolve("M3D-Iso").config, make_trace(list(ops)))
        expected = (base.cycles / 3.3e9) / (iso.cycles / iso.frequency)
        assert iso.speedup_over(base) == pytest.approx(expected)

    def test_empty_trace(self):
        result = run_trace(BASE, make_trace([alu()]))
        assert result.cycles > 0


class TestPruning:
    @pytest.mark.parametrize("app", ["Astar", "Xalancbmk"])
    def test_pruning_changes_nothing_but_the_tracked_cycles(
            self, monkeypatch, app):
        """The occupancy maps are pruned every ``PRUNE_INTERVAL`` uops;
        with pruning disabled the result must be identical, only the
        bookkeeping larger."""
        trace = generate_trace(spec_by_name()[app], 10_000, seed=1234)
        pruned = run_trace(BASE, trace)
        assert pruned.stats.uops > 2 * ooo.PRUNE_INTERVAL
        monkeypatch.setattr(ooo, "PRUNE_INTERVAL", 1 << 62)
        unbounded = run_trace(BASE, trace)
        assert pruned.stats.tracked_limiter_cycles \
            < unbounded.stats.tracked_limiter_cycles

        def untracked(result):
            return dataclasses.replace(result, stats=dataclasses.replace(
                result.stats, tracked_limiter_cycles=0))

        assert untracked(pruned) == untracked(unbounded)
