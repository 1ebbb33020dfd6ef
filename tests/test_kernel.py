"""The batched SoA kernel (:mod:`repro.uarch.kernel`).

The kernel's contract is *cycle-exactness*: ``run_trace_batch`` must
return results indistinguishable (full dataclass equality — stats,
stall attribution, memory-level histograms, everything) from per-config
``OutOfOrderCore.run`` calls, at every batch width and across the
prunes of its one compiled timing loop.  These tests pin that
contract, how the loop is built, the multicore batch equivalent, the
engine's byte-identical figure output with the kernel on vs off, and
the generator digests the replay-sharing optimisations silently depend
on.
"""

import dataclasses
import os

import pytest

from repro.design.resolve import (
    paper_multicore_configs,
    paper_single_core_configs,
    resolve,
)
from repro.golden import TRACE_CASES, load_golden, trace_digest
from repro.uarch import kernel
from repro.uarch.kernel import (
    kernel_enabled,
    run_trace_batch,
    simulate_core,
)
from repro.uarch.multicore import run_parallel_batch, run_parallel_tiles
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.parallel import parallel_profiles
from repro.workloads.spec import spec_profiles


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
    configs = paper_single_core_configs()
    trace = _fresh_trace(profile, 1500)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 1500))
    assert batched == oracle  # full SimResult equality, stats included


def test_batch_matches_oracle_edge_configs():
    """Narrow widths, hetero penalty, shared L2, tiny queues."""
    base = resolve("Base").config
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


@pytest.mark.parametrize("field", ["dispatch_width", "lq_entries"])
def test_batch_rejects_empty_widths_and_queues(field):
    """The compiled loop indexes its histories by queue depth and width;
    a zero would read entries no op has written, so it is refused."""
    config = dataclasses.replace(resolve("Base").config, **{field: 0})
    with pytest.raises(ValueError, match=field):
        run_trace_batch([config], _fresh_trace(spec_profiles()[0], 200))


def test_batch_preserves_config_order_and_duplicates():
    configs = paper_single_core_configs()
    shuffled = [configs[3], configs[0], configs[3], configs[5]]
    profile = spec_profiles()[1]
    trace = _fresh_trace(profile, 800)
    oracle = [run_trace(config, trace) for config in shuffled]
    batched = run_trace_batch(shuffled, _fresh_trace(profile, 800))
    assert batched == oracle
    assert [r.config_name for r in batched] == [c.name for c in shuffled]


def test_simulate_core_matches_oracle_single():
    """The per-core primitive agrees with the oracle on its own."""
    config = resolve("Base").config
    profile = spec_profiles()[0]
    trace = _fresh_trace(profile, 1000)
    expected = run_trace(config, trace)
    replay_trace = _fresh_trace(profile, 1000)
    image = kernel.replay_memory(replay_trace, config)
    assert simulate_core(replay_trace, config, image) == expected


@pytest.mark.parametrize("width", [1, 2, 17, 33])
def test_dispatch_boundary_widths(width, monkeypatch):
    """Exactness and config order at batch widths 1, 2, 17 and 33, with
    ``shared_l2`` alternating so the batch splits by L2 geometry: one
    compiled call per geometry group, whatever its width."""
    timed_widths = []
    real_time_configs = kernel._time_configs

    def spy(trace, arrays, outcomes, image, configs, *rest):
        timed_widths.append(len(configs))
        return real_time_configs(trace, arrays, outcomes, image, configs,
                                 *rest)

    monkeypatch.setattr(kernel, "_time_configs", spy)
    base = resolve("Base").config
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
    assert sorted(timed_widths) == sorted(size for size in groups if size)


def test_windows_across_prunes_match_oracle():
    """Long enough to prune the occupancy windows twice: 12,000 uops of
    the most DRAM-bound SPEC profile at width 1, where the rename cycle
    runs far ahead between prunes and the occupancy windows grow several
    times past their initial size.  Full equality includes the tracked
    cycles."""
    from repro.uarch.ooo import PRUNE_INTERVAL
    from repro.workloads.spec import spec_by_name

    profile = spec_by_name()["Xalancbmk"]
    base = resolve("Base").config
    narrow = dataclasses.replace(base, name="narrow", dispatch_width=1,
                                 issue_width=1, commit_width=1)
    configs = [
        narrow,
        dataclasses.replace(narrow, name="narrow-het", hetero=True,
                            shared_l2=True, rob_entries=16, iq_entries=8,
                            lq_entries=4, sq_entries=4),
    ]
    uops = 12_000
    assert uops > 2 * PRUNE_INTERVAL
    trace = _fresh_trace(profile, uops)
    oracle = [run_trace(config, trace) for config in configs]
    # At least 2 cycles per uop: a prune interval spans 8192+ cycles.
    assert all(r.cycles >= 2 * uops for r in oracle)
    batched = run_trace_batch(configs, _fresh_trace(profile, uops))
    assert batched == oracle
    assert [r.stats.tracked_limiter_cycles for r in batched] == \
        [r.stats.tracked_limiter_cycles for r in oracle]


# ---------------------------------------------------------------------------
# Compiled replay: its inputs and its model constants
# ---------------------------------------------------------------------------


def _tampered_trace(field, value):
    """A generated trace, rebuilt from plain lists with one ``field``
    value replaced by ``value``.  A tuple ``value`` replaces its first
    resident data segment, and a ``"resident line"`` replaces it with
    that one line, the row ``(value, 0, 1)``."""
    from repro.uarch.isa import OP_CODE, OpClass, Trace

    trace = _fresh_trace(spec_profiles()[0], 200)
    columns = [column.tolist() for column in trace.columns]
    codes, src1, address, pc = columns[0], columns[1], columns[3], columns[4]
    segments = trace.data_segments.tolist()
    warmup = trace.warmup_ops
    if isinstance(value, tuple):
        segments[0] = value
    elif field == "resident line":
        segments[0] = (value, 0, 1)
    elif field == "warmup":
        warmup = value
    elif field == "columns":
        del pc[value:]
    elif field == "address":
        address[codes.index(OP_CODE[OpClass.LOAD])] = value
    elif field == "pc":
        pc[0] = value
    else:
        src1[-1] = value
    return Trace("tampered", warmup_ops=warmup,
                 segments=(segments, trace.code_segments), columns=columns)


@pytest.mark.parametrize("field, value", [
    ("address", -64), ("pc", -4), ("resident line", -64),
    ("resident line", 2 ** 62),
    ("address", 2 ** 62), ("warmup", -1), ("warmup", 10 ** 6),
    ("columns", -1), ("src1", 2 ** 31),
    ("negative start", (-64, 64, 4)), ("negative step", (1 << 34, -64, 4)),
    ("negative count", (1 << 34, 64, -1)),
    ("last line", (1 << 34, 4096, 2 ** 50)),
    # ``step * (count - 1)`` is 2**63: it would wrap to a negative int64.
    ("last line", (1 << 34, 2 ** 62, 3)),
])
def test_replay_rejects_what_the_c_would_get_wrong(field, value):
    """The replay's shifts and masks equal Python's ``//`` and ``%`` only
    for values that are not negative, so a negative address, pc or
    resident line (or a segment that steps or counts backwards) would be
    served from a plausible wrong set, and a prefetch past ``2**62``
    could overflow; a short column or a warmup outside the trace would
    make it read or write past an array, and a value outside its
    column's C type cannot be stored.  Building the trace refuses them
    all, so no replay ever sees one."""
    with pytest.raises(ValueError, match=f"'tampered'.*{field}"):
        _tampered_trace(field, value)


def test_trace_refuses_an_array_its_column_cannot_hold():
    """NumPy casts an ``int64`` array into the ``int32`` ``src1`` column
    without a check, wrapping ``2**32 + d`` to ``d``: a plausible wrong
    distance.  Building the trace refuses the array instead."""
    import numpy as np

    from repro.uarch.isa import Trace

    columns = list(_fresh_trace(spec_profiles()[0], 200).columns)
    columns[1] = columns[1].astype(np.int64) + 2 ** 32
    with pytest.raises(ValueError, match="'tampered'.*src1"):
        Trace("tampered", columns=columns)


def test_prefix_shares_its_stream():
    """A prefix is views of its stream's columns and the stream's own
    resident segment arrays, all read-only, and the compiled code reads
    views that start inside the longer stream's buffers."""
    import numpy as np

    profile = parallel_profiles()[0]
    n = 600
    stream = _fresh_trace(profile, 2 * n, thread=1)
    prefix = stream.prefix(n)
    for mine, theirs in zip(prefix.columns, stream.columns):
        assert np.shares_memory(mine, theirs)
        with pytest.raises(ValueError):
            mine[0] = mine[0]
    assert prefix.data_segments is stream.data_segments
    assert prefix.code_segments is stream.code_segments
    for segments in (prefix.data_segments, prefix.code_segments):
        with pytest.raises(ValueError):
            segments[0, 0] = 0
    arrays = kernel.decode(prefix)
    for name in ("codes", "src1", "src2"):
        assert np.shares_memory(getattr(arrays, name), getattr(prefix, name))
    configs = paper_single_core_configs()
    assert run_trace_batch(configs, prefix) == run_trace_batch(
        configs, _fresh_trace(profile, n, thread=1))


def test_memoized_single_core_prefix_matches_a_fresh_trace():
    """A single-core request shorter than its memoized stream is a view
    into that stream's buffers, and the compiled replay and timing loop
    read it exactly as they read a trace generated at that length."""
    import numpy as np

    from repro.workloads import generator

    profile = spec_profiles()[2]
    n = 700
    generator._TRACES.clear()
    generator._STREAMS.clear()
    stream = generator.memoized_trace(profile, 2 * n)
    prefix = generator.memoized_trace(profile, n)
    for mine, theirs in zip(prefix.columns, stream.columns):
        assert np.shares_memory(mine, theirs)
    assert len(prefix) < len(stream)
    configs = paper_single_core_configs()
    assert run_trace_batch(configs, prefix) == run_trace_batch(
        configs, _fresh_trace(profile, n))
    generator._TRACES.clear()
    generator._STREAMS.clear()


@pytest.mark.parametrize("shared_l2", [False, True])
def test_replay_geometry_is_the_hierarchy_geometry(shared_l2):
    """The compiled replay and the oracle's hierarchy build their levels
    from one table in ``cache.py``."""
    from repro.uarch.cache import CacheHierarchy

    hierarchy = CacheHierarchy(
        dataclasses.replace(resolve("Base").config, shared_l2=shared_l2)
    )
    assert kernel._geometry(shared_l2).tolist() == [
        [level.sets, level.ways, level.line_bytes]
        for level in (hierarchy.il1, hierarchy.dl1, hierarchy.l2,
                      hierarchy.l3)
    ]


@pytest.mark.parametrize("level, column, value", [
    (0, 0, 96), (2, 0, 0), (3, 2, 48), (1, 2, 0), (1, 1, 0),
])
def test_replay_refuses_a_geometry_it_cannot_shift_and_mask(
        monkeypatch, level, column, value):
    """The replay takes a line's tag and set with a shift and a mask: a
    set count or line size that is not a power of two (or a level with
    no ways) makes the library return a status that raises, before it
    replays any access."""
    geometry = kernel._geometry(False)
    geometry[level, column] = value
    monkeypatch.setattr(kernel, "_geometry", lambda shared_l2: geometry)
    trace = _fresh_trace(spec_profiles()[0], 200)
    with pytest.raises(ValueError, match="powers of two"):
        kernel.replay_memory(trace, resolve("Base").config)


# ---------------------------------------------------------------------------
# Building the compiled library
# ---------------------------------------------------------------------------


def test_missing_compiler_names_gcc_and_the_build_directory(monkeypatch,
                                                           tmp_path):
    """Without gcc nothing simulates, so the error offers no switch."""
    monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    with pytest.raises(RuntimeError, match=r"no C compiler \(gcc\)") as error:
        kernel._library(tmp_path / "build")
    assert str(tmp_path / "build") in str(error.value)
    assert "REPRO_KERNEL" not in str(error.value)
    assert not (tmp_path / "build").exists()


def test_unwritable_build_directory_names_gcc_and_the_directory(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    with pytest.raises(RuntimeError, match="gcc") as error:
        kernel._library(blocker / "build")
    assert str(blocker / "build") in str(error.value)
    assert "REPRO_KERNEL" not in str(error.value)


def test_trace_synthesis_needs_the_compiler(monkeypatch, tmp_path):
    """The generator's row loop is in the library: even the oracle's
    traces need gcc."""
    monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    monkeypatch.setattr(kernel, "_BUILD_DIR", tmp_path / "build")
    monkeypatch.setenv("REPRO_KERNEL", "0")
    with pytest.raises(RuntimeError, match=r"no C compiler \(gcc\)"):
        generate_trace(spec_profiles()[0], 100)


def test_a_new_build_removes_stale_builds(tmp_path):
    """An installed build deletes every other ``timing-*.so`` beside it
    (dead builds of older sources) but not a concurrent builder's
    temporary file."""
    build = tmp_path / "build"
    build.mkdir()
    (build / "timing-0123456789abcdef.so").write_bytes(b"stale")
    (build / ".timing-0123456789abcdef-x.tmp").write_bytes(b"in progress")
    kernel._library(build)
    libraries = sorted(p.name for p in build.glob("timing-*.so"))
    assert len(libraries) == 1
    assert libraries != ["timing-0123456789abcdef.so"]
    assert (build / ".timing-0123456789abcdef-x.tmp").exists()


_BUILD_AND_TIME = """
import sys
from pathlib import Path
from repro.design.resolve import paper_single_core_configs
from repro.uarch import kernel
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_profiles

kernel._BUILD_DIR = Path(sys.argv[1])
trace = generate_trace(spec_profiles()[3], 600, seed=7)
print(repr(kernel.run_trace_batch(paper_single_core_configs(), trace)))
"""


def test_concurrent_builds_install_one_library(tmp_path):
    """Four processes racing to build into one fresh directory: each
    renames a complete library into place, so exactly one artefact is
    left, no temporary file survives, and all four time identically."""
    import subprocess
    import sys
    from pathlib import Path

    build = tmp_path / "build"
    src = str(Path(kernel.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    procs = [
        subprocess.Popen([sys.executable, "-c", _BUILD_AND_TIME, str(build)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env)
        for _ in range(4)
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(out)
    assert len(set(outputs)) == 1 and "SimResult" in outputs[0]
    assert [p.suffix for p in build.iterdir()] == [".so"]


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
    configs = paper_multicore_configs()
    oracle = [run_parallel_tiles([config] * config.num_cores, profile, 2400,
                                 seed=1234)
              for config in configs]
    batched = run_parallel_batch(configs, profile, 2400, seed=1234)
    assert batched == oracle


def test_parallel_batch_rejects_serial_profiles():
    with pytest.raises(ValueError):
        run_parallel_batch(paper_multicore_configs(), spec_profiles()[0], 1000)


def test_kernel_path_builds_no_micro_ops(monkeypatch):
    """Traces are generated as columns and the kernel reads the columns:
    only the scalar oracle, digests and tests build ``MicroOp`` records."""
    from repro.uarch import multicore
    from repro.uarch.isa import MicroOp, OpClass
    from repro.workloads import generator

    memos = (generator._TRACES, generator._STREAMS, multicore._MC_IMAGE_MEMO)
    for memo in memos:
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
    run_trace_batch(paper_single_core_configs(),
                    _fresh_trace(spec_profiles()[1], 800))
    run_parallel_batch(paper_multicore_configs(), parallel_profiles()[1], 2400)
    assert built == []
    for memo in memos:
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


def test_engine_telemetry_counts_kernel_batches(monkeypatch):
    from repro.engine.sweep import ExperimentEngine

    from repro.obs import run_record

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    eng = ExperimentEngine(jobs=1, cache_dir=None)
    with run_record() as record:
        eng.single_core_runs(700, profiles=spec_profiles()[:2])
    summary = record.kernel_summary()
    assert summary["groups"] == 2  # one batch per profile
    assert summary["batched_specs"] == 2 * len(paper_single_core_configs())
    assert summary["max_width"] == len(paper_single_core_configs())
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


def test_manifest_kernel_section_roundtrip(monkeypatch):
    from repro.engine.sweep import ExperimentEngine
    from repro.obs import build_manifest, run_record, validate_manifest

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    eng = ExperimentEngine(jobs=1, cache_dir=None)
    with run_record() as record:
        eng.single_core_runs(600, profiles=spec_profiles()[:1])
    manifest = build_manifest("test", record, engine=eng)
    assert validate_manifest(manifest) == []
    assert manifest["kernel"]["summary"]["batched_specs"] == len(
        paper_single_core_configs()
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
    configs = paper_single_core_configs()
    profile = spec_profiles()[0]
    trace = _fresh_trace(profile, 800)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 800))
    assert all(r.stats.tracked_limiter_cycles > 0 for r in oracle)
    assert [r.stats.tracked_limiter_cycles for r in batched] == \
        [r.stats.tracked_limiter_cycles for r in oracle]
