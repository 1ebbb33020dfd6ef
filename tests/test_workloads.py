"""Tests for application profiles and the trace generator."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.golden import trace_digest
from repro.uarch import kernel
from repro.uarch.isa import COLUMNS, OpClass, Trace
from repro.workloads.generator import (
    SHARED_REGION_BASE,
    TraceGenerator,
    generate_trace,
)
from repro.workloads.parallel import parallel_by_name, parallel_profiles
from repro.workloads.profiles import AppProfile
from repro.workloads.spec import spec_by_name, spec_profiles
from tests.references import reference_generate


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
        # Every producer distance stays inside the trace prefix.
        trace = generate_trace(spec_by_name()["Mcf"], 2000)
        for index, op in enumerate(trace.ops):
            for dist in (op.src1, op.src2):
                assert dist is None or dist <= index, (index, dist)

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
        assert len(trace.resident_data)
        assert len(trace.resident_code)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            TraceGenerator(spec_by_name()["Gcc"]).generate(0)


class TestColumnarTrace:
    """A trace is stored as columns; ``MicroOp`` records are a view."""

    @staticmethod
    def assert_same_trace(a, b):
        for column in COLUMNS:
            assert np.array_equal(getattr(a, column), getattr(b, column)), \
                column
        assert a.warmup_ops == b.warmup_ops
        assert np.array_equal(a.resident_data, b.resident_data)
        assert np.array_equal(a.resident_code, b.resident_code)
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
            segments=(trace.data_segments, trace.code_segments),
        )
        self.assert_same_trace(rebuilt, trace)
        assert rebuilt.ops == trace.ops

    def test_trace_needs_exactly_one_of_ops_or_columns(self):
        trace = generate_trace(spec_by_name()["Gcc"], 100)
        with pytest.raises(TypeError):
            Trace("neither")
        with pytest.raises(TypeError):
            Trace("both", ops=trace.ops, columns=trace.columns)


class TestCompiledGenerator:
    """The compiled row loop continues ``random.Random`` draw for draw:
    each case runs a generator and a twin through the Python loop it
    replaced (:func:`reference_generate`) twice in a row and compares
    the traces, the RNG states and the code and stream pointers."""

    @staticmethod
    def assert_twins_agree(profile, seed, thread, lengths):
        compiled = TraceGenerator(profile, seed=seed, thread=thread)
        reference = TraceGenerator(profile, seed=seed, thread=thread)
        for n in lengths:
            assert compiled.generate(n) == reference_generate(reference, n)
            assert compiled._rng.getstate() == reference._rng.getstate()
            assert compiled._code_ptr == reference._code_ptr
            assert compiled._stream_ptr == reference._stream_ptr

    @settings(deadline=None, max_examples=40)
    @given(data=st.data(),
           index=st.integers(0, 35),
           seed=st.integers(0, 2 ** 32),
           thread=st.integers(0, 7),
           lengths=st.lists(st.integers(1, 3000), min_size=2, max_size=2))
    def test_matches_the_python_loop(self, data, index, seed, thread,
                                     lengths):
        profile = (spec_profiles() + parallel_profiles())[index]
        fraction = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        changes = dict(
            code_bytes=data.draw(st.integers(1, 1 << 16)
                                 | st.just(profile.code_bytes)),
            static_branches=data.draw(st.integers(1, 512)),
            sharing_frac=data.draw(fraction),
            stream_frac=data.draw(fraction),
            serial_frac=data.draw(fraction),
            hot_frac=data.draw(fraction),
        )
        if profile.is_parallel:  # barriers within reach of short traces
            changes["barrier_period"] = data.draw(st.integers(1, 1500))
        variant = dataclasses.replace(profile, **changes)
        self.assert_twins_agree(variant, seed, thread, lengths)

    def test_bounds_past_32_bits_draw_two_words(self):
        """``randrange(2**33)`` for the shared region takes two MT words,
        the second the more significant, as CPython's getrandbits."""
        ocean = dataclasses.replace(parallel_by_name()["Ocean"],
                                    working_set_bytes=2 ** 36,
                                    sharing_frac=0.5, barrier_period=700)
        self.assert_twins_agree(ocean, 11, 2, [2000, 900])
        trace = generate_trace(ocean, 2000, seed=11, thread=2)
        assert trace.address.max() >= SHARED_REGION_BASE + 2 ** 32

    @pytest.mark.parametrize("field", ["static_branches", "hot_set_bytes"])
    def test_empty_range_raises_where_the_python_loop_does(self, field):
        gcc = dataclasses.replace(spec_by_name()["Gcc"], **{field: 0})
        compiled = TraceGenerator(gcc, seed=5)
        reference = TraceGenerator(gcc, seed=5)
        with pytest.raises(ValueError, match="empty range"):
            reference_generate(reference, 500)
        with pytest.raises(ValueError, match="empty range"):
            compiled.generate(500)
        assert compiled._rng.getstate() == reference._rng.getstate()

    @pytest.mark.parametrize("thread,changes,message", [
        # This thread's private region starts at 2**62.
        (2 ** 28 - 1, {}, r"2\*\*62"),
        # ctypes would pass these as small positive int64 values.
        (0, {"working_set_bytes": -2 ** 70}, "negative"),
        (0, {"hot_set_bytes": 100 - 2 ** 64}, "negative"),
        (0, {"code_bytes": 100 - 2 ** 64, "static_branches": 0}, "negative"),
        (0, {"stride_bytes": -8}, "negative"),
    ])
    def test_out_of_range_values_are_refused_before_the_compiled_loop(
            self, monkeypatch, thread, changes, message):
        def no_library(directory):
            raise AssertionError("the compiled loop was reached")

        monkeypatch.setattr(kernel, "_library", no_library)
        gcc = dataclasses.replace(spec_by_name()["Gcc"], **changes)
        with pytest.raises(ValueError, match=message):
            TraceGenerator(gcc, thread=thread).generate(100)


#: Measured uops of each pinned report trace: 21,000 rows reach a barrier
#: on every parallel profile (the longest period is 20,000 rows).
REPORT_TRACE_UOPS = 14_000

#: The first 16 hex digits of :func:`column_digest` of every trace a
#: cold report synthesizes, at seed 1234 and :data:`REPORT_TRACE_UOPS`:
#: the 21 SPEC profiles at thread 0, the 15 parallel ones at threads
#: 0-7.  A report trace is a prefix of these (:meth:`Trace.prefix`), so
#: they pin its columns and resident lines at any length up to this one.
REPORT_TRACE_DIGESTS = {
    "Astar/0": "4ad4b635282d9ae9",
    "Bzip2/0": "cdb89c820fa745d8",
    "Calculix/0": "d1734799ec8fc995",
    "Dealii/0": "d9fe50b208ebb579",
    "Gamess/0": "f619c4daef071a0a",
    "Gcc/0": "9eed8a209041bc38",
    "Gems/0": "ef3ad897f31115b8",
    "Gobmk/0": "43d260c9301cd8cd",
    "Gromacs/0": "c998ad62c501e5f7",
    "H264Ref/0": "3f59256cf23fb4ff",
    "Hmmer/0": "2b240ad29fd4c779",
    "Lbm/0": "5da96cdd05982f93",
    "Libquantum/0": "e143f25bf07bde9c",
    "Mcf/0": "b6bf5c851872c495",
    "Milc/0": "9973ee9450b422f6",
    "Namd/0": "36189763670ff9aa",
    "Omnetpp/0": "704ce2ae22c19606",
    "Povray/0": "a19f1add70baaa5a",
    "Sjeng/0": "ad62deac8b25a971",
    "Soplex/0": "d6b6535a96dfd453",
    "Xalancbmk/0": "1640d99bdd97b0c2",
    "Barnes/0": "846d32a63825dc7a",
    "Barnes/1": "1a683fc0df7de475",
    "Barnes/2": "067f915157fae7cf",
    "Barnes/3": "e80c91f64b35a5ae",
    "Barnes/4": "560ecb33a117a3f7",
    "Barnes/5": "885245f1c5340702",
    "Barnes/6": "c570f81d2dcdce3a",
    "Barnes/7": "27b08620da45f9c7",
    "Blackscholes/0": "8cd7cc5d112e766f",
    "Blackscholes/1": "dc6eeee864efa7d0",
    "Blackscholes/2": "517b20cc23222c6c",
    "Blackscholes/3": "97852a1f76e99bc2",
    "Blackscholes/4": "ae01e9551c3008c6",
    "Blackscholes/5": "4c23aed8cb7984dc",
    "Blackscholes/6": "99a736e11512693e",
    "Blackscholes/7": "e1fe67dea868c37c",
    "Canneal/0": "03481fbd30ac6188",
    "Canneal/1": "23db122a2647aa18",
    "Canneal/2": "c37ed5a742f808dd",
    "Canneal/3": "a66b2872bbe37778",
    "Canneal/4": "e97d0e095e827477",
    "Canneal/5": "09814693a64b46d7",
    "Canneal/6": "37db6ac6dd4ca151",
    "Canneal/7": "3d4669856b4dcb54",
    "Cholesky/0": "ac183a6f425885dd",
    "Cholesky/1": "6a007e4a53b9519a",
    "Cholesky/2": "445946281a53692b",
    "Cholesky/3": "9ab609cdfcb77f24",
    "Cholesky/4": "539f33d8025236f4",
    "Cholesky/5": "6b512f414631eb0f",
    "Cholesky/6": "568bccff90b9e05f",
    "Cholesky/7": "b6393da6dc798b43",
    "Fft/0": "3354f2afc7fdf472",
    "Fft/1": "a8660a97c7472ff6",
    "Fft/2": "20f3b6832e193b90",
    "Fft/3": "5329cf5bd89f7f9d",
    "Fft/4": "b434f20d63d7a298",
    "Fft/5": "9a60e41ace7e4db1",
    "Fft/6": "ee233fdefeac7720",
    "Fft/7": "37b92796c34f39f6",
    "Fluidanimate/0": "00b42cbc49989538",
    "Fluidanimate/1": "7361cdbc760dff38",
    "Fluidanimate/2": "7112f3795a44d291",
    "Fluidanimate/3": "42af050169447624",
    "Fluidanimate/4": "970cb4572f55d996",
    "Fluidanimate/5": "d8d19f8079971314",
    "Fluidanimate/6": "4992c12f6e178caf",
    "Fluidanimate/7": "e88dd7ee6912f0d4",
    "Fmm/0": "8eb505cfba723633",
    "Fmm/1": "dcd90c6998f9aee1",
    "Fmm/2": "ed6d42e3c9b1e0bc",
    "Fmm/3": "bbee363facc7ae94",
    "Fmm/4": "d0f4c0408cf112da",
    "Fmm/5": "79d4de057b4c9403",
    "Fmm/6": "1d24befa3470c68f",
    "Fmm/7": "e6fdab0b7f3e6b8a",
    "Lu/0": "69c61e5ac659362b",
    "Lu/1": "f900fd4a56ef0bbc",
    "Lu/2": "097c51121ca09896",
    "Lu/3": "39351ee766f60a80",
    "Lu/4": "1393a155a977f7d2",
    "Lu/5": "ef74d24c7f11154c",
    "Lu/6": "b3fd523dec85b315",
    "Lu/7": "3cedbceb1e3e8d24",
    "Ocean/0": "98921d2fcd072571",
    "Ocean/1": "3d766d0a235583e5",
    "Ocean/2": "a3bad48ea72ce298",
    "Ocean/3": "f11408f60b8e13c4",
    "Ocean/4": "e956b0bc27201599",
    "Ocean/5": "cefc72962d0383bc",
    "Ocean/6": "69774a1e6ba6fbcf",
    "Ocean/7": "ef12d77f20b4656e",
    "Radiosity/0": "daee51c7b4012486",
    "Radiosity/1": "f5d2c74f9c2b0f29",
    "Radiosity/2": "654a68eeddbf6998",
    "Radiosity/3": "ebf95dd96ff5732b",
    "Radiosity/4": "59b064b329c2868b",
    "Radiosity/5": "a28e12f01c248fa9",
    "Radiosity/6": "49225275ab7fbcd8",
    "Radiosity/7": "2f568b6376678eac",
    "Radix/0": "842b35c8183f1dcc",
    "Radix/1": "f59307085f19e64c",
    "Radix/2": "5963c400712d647f",
    "Radix/3": "06dc94ccf1cf0ee7",
    "Radix/4": "b8cff83343cd792d",
    "Radix/5": "3ba89b9095f1919f",
    "Radix/6": "cc906b77eb6999f5",
    "Radix/7": "8b0782556cf9647a",
    "Raytrace/0": "278fc1d75547a77d",
    "Raytrace/1": "9a72032f98ca7682",
    "Raytrace/2": "403b6f93a259bbb1",
    "Raytrace/3": "f0c20c4731da9e5b",
    "Raytrace/4": "6f1b0dbc6c68fd6f",
    "Raytrace/5": "3ef34cb4f9fb94de",
    "Raytrace/6": "20f2e797b5293ba1",
    "Raytrace/7": "cb4388607484481e",
    "Streamcluster/0": "d4275b0613cbe227",
    "Streamcluster/1": "5565157087b0aabb",
    "Streamcluster/2": "250be78b6819b845",
    "Streamcluster/3": "a8f8f1a7c933d008",
    "Streamcluster/4": "21126d84e1a41397",
    "Streamcluster/5": "308ccc8ad03cda49",
    "Streamcluster/6": "3c63753c94576331",
    "Streamcluster/7": "bdf743eb5fa945c6",
    "Water-Nsquared/0": "2b4ec9a69a1cf53d",
    "Water-Nsquared/1": "0b1372636f623fb2",
    "Water-Nsquared/2": "f9fa2aa127df6413",
    "Water-Nsquared/3": "06ba8cb1db4e4d02",
    "Water-Nsquared/4": "d00d3ac6d38b4a17",
    "Water-Nsquared/5": "fd279d2e450caaf4",
    "Water-Nsquared/6": "e5773c8af2b61ba9",
    "Water-Nsquared/7": "a46a119e8030db66",
    "Water-Spatial/0": "aeb86ec26a6d2bf5",
    "Water-Spatial/1": "4ad0a725a5c90190",
    "Water-Spatial/2": "9369ac1c76b0734e",
    "Water-Spatial/3": "3a34c42f2bb82c7c",
    "Water-Spatial/4": "b1a91b8ed24df3ec",
    "Water-Spatial/5": "8f80905b9b634959",
    "Water-Spatial/6": "15a83396366432f4",
    "Water-Spatial/7": "3dce1ecbcbccbe51",
}


def column_digest(trace):
    """sha256 of a trace's seven columns and two resident-line arrays,
    each as its length and its little-endian bytes."""
    digest = hashlib.sha256()
    for array in (*trace.columns, trace.resident_data, trace.resident_code):
        digest.update(len(array).to_bytes(8, "little"))
        digest.update(array.astype(array.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()[:16]


def test_every_report_trace_is_pinned():
    threads = {profile.name: [0] for profile in spec_profiles()}
    threads.update({profile.name: range(8) for profile in parallel_profiles()})
    profiles = {**spec_by_name(), **parallel_by_name()}
    digests = {
        f"{name}/{thread}": column_digest(generate_trace(
            profiles[name], REPORT_TRACE_UOPS, seed=1234, thread=thread))
        for name, cases in threads.items() for thread in cases
    }
    assert len(digests) == 141
    assert digests == REPORT_TRACE_DIGESTS


@pytest.mark.parametrize("case", ["Gcc/0", "Canneal/5", "Ocean/3"])
def test_generated_trace_stores_segments_not_lines(case):
    """A generated trace keeps its warm state as at most four ``(start,
    step, count)`` rows per residency kind and stores no line array; the
    lines those rows stand for still give the pinned digest."""
    name, thread = case.split("/")
    profile = {**spec_by_name(), **parallel_by_name()}[name]
    trace = generate_trace(profile, REPORT_TRACE_UOPS, seed=1234,
                           thread=int(thread))
    segments = (trace.data_segments, trace.code_segments)
    for rows in segments:
        assert rows.dtype == np.int64
        assert rows.ndim == 2 and rows.shape[1] == 3 and len(rows) <= 4
    for value in vars(trace).values():
        if isinstance(value, np.ndarray):
            assert len(value) == len(trace) or any(
                value is rows for rows in segments)
    assert column_digest(trace) == REPORT_TRACE_DIGESTS[case]
