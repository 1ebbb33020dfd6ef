"""Tests for application profiles and the trace generator."""

import pytest

from repro.golden import trace_digest
from repro.uarch.isa import COLUMNS, OpClass, Trace, validate_trace
from repro.workloads.generator import TraceGenerator, generate_trace
from repro.workloads.parallel import parallel_by_name, parallel_profiles
from repro.workloads.profiles import AppProfile, classify, memory_bound_score
from repro.workloads.spec import spec_by_name, spec_profiles


class TestProfiles:
    def test_twenty_one_spec_profiles(self):
        assert len(spec_profiles()) == 21

    def test_fifteen_parallel_profiles(self):
        assert len(parallel_profiles()) == 15

    def test_figure_order_starts_with_astar(self):
        assert spec_profiles()[0].name == "Astar"
        assert spec_profiles()[-1].name == "Xalancbmk"

    def test_parallel_figure_order(self):
        names = [p.name for p in parallel_profiles()]
        assert names[0] == "Barnes"
        assert names[-1] == "Water-Spatial"

    def test_mix_sums_below_one(self):
        for profile in spec_profiles() + parallel_profiles():
            assert profile.alu_frac >= 0.0, profile.name

    def test_mcf_memory_bound_gamess_not(self):
        profiles = spec_by_name()
        assert memory_bound_score(profiles["Mcf"]) > memory_bound_score(
            profiles["Gamess"]
        )

    def test_classification(self):
        profiles = spec_by_name()
        kind, branchy = classify(profiles["Sjeng"])
        assert branchy == "branchy"

    def test_parallel_profiles_have_barriers(self):
        for profile in parallel_profiles():
            assert profile.is_parallel
            assert profile.barrier_period > 0

    def test_spec_profiles_sequential(self):
        for profile in spec_profiles():
            assert not profile.is_parallel

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            AppProfile(name="bad", suite="x", load_frac=0.9, store_frac=0.2)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            AppProfile(name="bad", suite="x", hot_frac=1.5)


class TestGenerator:
    def test_trace_length_includes_warmup(self):
        trace = generate_trace(spec_by_name()["Gamess"], 1000, warmup_frac=0.5)
        assert trace.warmup_ops == 500
        assert len(trace) >= 1500

    def test_deterministic_per_seed(self):
        profile = spec_by_name()["Gcc"]
        a = generate_trace(profile, 500, seed=42)
        b = generate_trace(profile, 500, seed=42)
        assert [op.op for op in a.ops] == [op.op for op in b.ops]
        assert [op.address for op in a.ops] == [op.address for op in b.ops]

    def test_different_seeds_differ(self):
        profile = spec_by_name()["Gcc"]
        a = generate_trace(profile, 500, seed=1)
        b = generate_trace(profile, 500, seed=2)
        assert [op.address for op in a.ops] != [op.address for op in b.ops]

    def test_mix_tracks_profile(self):
        profile = spec_by_name()["Lbm"]
        trace = generate_trace(profile, 8000)
        mix = trace.op_mix()
        assert mix[OpClass.LOAD] == pytest.approx(profile.load_frac, abs=0.03)
        assert mix[OpClass.STORE] == pytest.approx(profile.store_frac, abs=0.03)

    def test_fp_profile_emits_fp_ops(self):
        trace = generate_trace(spec_by_name()["Namd"], 4000)
        mix = trace.op_mix()
        fp = (
            mix.get(OpClass.FP_ADD, 0)
            + mix.get(OpClass.FP_MUL, 0)
            + mix.get(OpClass.FP_DIV, 0)
        )
        assert fp == pytest.approx(spec_by_name()["Namd"].fp_frac, abs=0.04)

    def test_dependencies_valid(self):
        trace = generate_trace(spec_by_name()["Mcf"], 2000)
        validate_trace(trace.ops)

    def test_parallel_traces_carry_barriers(self):
        profile = parallel_by_name()["Ocean"]
        trace = generate_trace(profile, 20000)
        syncs = [op for op in trace.ops if op.op is OpClass.SYNC]
        assert len(syncs) >= 2

    def test_threads_use_disjoint_private_regions(self):
        profile = parallel_by_name()["Fft"]
        t0 = generate_trace(profile, 2000, thread=0)
        t1 = generate_trace(profile, 2000, thread=1)
        privates0 = {
            op.address for op in t0.ops
            if op.address is not None and op.address < (1 << 40)
        }
        privates1 = {
            op.address for op in t1.ops
            if op.address is not None and op.address < (1 << 40)
        }
        assert not privates0 & privates1

    def test_threads_share_the_shared_region(self):
        profile = parallel_by_name()["Canneal"]
        t0 = generate_trace(profile, 8000, thread=0)
        shared = [
            op.address for op in t0.ops
            if op.address is not None and op.address >= (1 << 40)
        ]
        assert shared  # sharing_frac > 0 produces shared accesses

    def test_resident_sets_attached(self):
        trace = generate_trace(spec_by_name()["Gamess"], 1000)
        assert trace.resident_data
        assert trace.resident_code

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            TraceGenerator(spec_by_name()["Gcc"]).generate(0)


class TestColumnarTrace:
    """A trace is stored as columns; ``MicroOp`` records are a view."""

    @staticmethod
    def assert_same_trace(a, b):
        for column in COLUMNS:
            assert getattr(a, column) == getattr(b, column), column
        assert a.warmup_ops == b.warmup_ops
        assert a.resident_data == b.resident_data
        assert a.resident_code == b.resident_code
        assert trace_digest(a) == trace_digest(b)
        assert a == b

    @pytest.mark.parametrize("name,thread", [
        ("Gcc", 0), ("Ocean", 0), ("Ocean", 3),
    ])
    def test_prefix_of_longer_trace_is_the_shorter_trace(self, name, thread):
        """For one (profile, seed, thread) the generator's draws do not
        depend on the requested length: the multicore trace memo serves
        a shorter core share as a prefix of a longer stream."""
        profile = {**spec_by_name(), **parallel_by_name()}[name]
        n = 1500
        longer = generate_trace(profile, 2 * n, seed=7, thread=thread)
        prefix = longer.prefix(n)
        fresh = generate_trace(profile, n, seed=7, thread=thread)
        assert prefix.warmup_ops == n // 2
        self.assert_same_trace(prefix, fresh)

    def test_prefix_rejects_out_of_range_lengths(self):
        trace = generate_trace(spec_by_name()["Gcc"], 400)
        assert trace.prefix(400) == trace
        with pytest.raises(ValueError):
            trace.prefix(401)
        with pytest.raises(ValueError):
            trace.prefix(0)

    def test_ops_round_trip_reproduces_columns(self):
        trace = generate_trace(parallel_by_name()["Ocean"], 3000, thread=1)
        assert any(code == 0 for code in trace.src1)  # ready operands
        rebuilt = Trace(
            trace.name, ops=trace.ops, warmup_ops=trace.warmup_ops,
            resident_data=trace.resident_data,
            resident_code=trace.resident_code,
        )
        self.assert_same_trace(rebuilt, trace)
        assert rebuilt.ops == trace.ops

    def test_trace_needs_exactly_one_of_ops_or_columns(self):
        trace = generate_trace(spec_by_name()["Gcc"], 100)
        with pytest.raises(TypeError):
            Trace("neither")
        with pytest.raises(TypeError):
            Trace("both", ops=trace.ops, columns=trace.columns)
