"""Batched structure-of-arrays timing kernel.

Every figure/table sweep re-simulates the *same trace* under
configurations that differ only in latencies, widths and frequency.  The
scalar :class:`~repro.uarch.ooo.OutOfOrderCore` interleaves three kinds
of work per micro-op:

1. **trace decoding** — reading the trace's columns,
2. **microarchitectural state that is configuration-independent** — the
   branch predictor outcome and the cache level each access is served
   from depend only on the access *sequence* and the L2 geometry
   (``shared_l2`` is the single config knob that changes cache contents;
   per-level latencies are pure table lookups),
3. **timing recurrences** — the only part that actually varies per
   configuration.

This kernel factors the three apart.  A trace's columns already are
the arrays the compiled code reads (checked once, when the
:class:`~repro.uarch.isa.Trace` is built); the predictor is replayed
**once per trace** and the cache hierarchy (with the coherence
directory, in a multicore) **once per cache geometry**, into
per-access level/outcome arrays; and the timing recurrences are then
evaluated against those arrays.  The cache replay warms each level
from the trace's resident segments (``(start, step, count)`` rows; no
line array is built) and finds a line's tag and set with a shift and a
mask, as every set count and line size in
:func:`~repro.uarch.cache.level_geometries` is a power of two.  All
three replays and the timing loop are compiled C (``timing.c``, built
with the system ``gcc`` on first use and called through
:mod:`ctypes`); Python only dispatches.  The same library also
synthesizes the traces: the row loop of
:meth:`~repro.workloads.generator.TraceGenerator.generate` is its
``generate_trace``.

:func:`run_trace_batch` and :func:`simulate_core` are the public entry
points; they are **cycle-exact** against the scalar oracle — same
``SimResult``, same stats, same stall attribution — which the property
tests assert op-for-op.  The scalar :meth:`OutOfOrderCore.run`, with
:class:`~repro.uarch.cache.CacheHierarchy`,
:class:`~repro.uarch.cache.CoherenceDirectory` and
:class:`~repro.uarch.bpred.TournamentPredictor`, remains the reference
implementation (the same oracle pattern as the thermal solver's
reference path), and ``$REPRO_KERNEL=0`` runs it instead.  Traces come
from the library either way, so every simulation needs ``gcc``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configs import CoreConfig
from repro.uarch import ooo as _ooo
from repro.uarch.bpred import LOCAL_HISTORY_BITS, TABLE_ENTRIES
from repro.uarch.cache import (
    COHERENCE_LINE_BYTES,
    PREFETCH_DEGREE,
    level_geometries,
)
from repro.uarch.isa import (
    FP_DIV_ISSUE_INTERVAL,
    FU_POOLS,
    OP_CODE,
    OP_LATENCY,
    OP_ORDER,
    OpClass,
    Trace,
)
from repro.uarch.ooo import (
    FETCH_BLOCK_UOPS,
    FRONT_END_DEPTH,
    STALL_CAUSES,
    SimResult,
    SimStats,
)

_LOAD = OP_CODE[OpClass.LOAD]
_STORE = OP_CODE[OpClass.STORE]
_BRANCH = OP_CODE[OpClass.BRANCH]
_COMPLEX = OP_CODE[OpClass.COMPLEX]
_SYNC = OP_CODE[OpClass.SYNC]
_DIV = OP_CODE[OpClass.DIV]
_FP_DIV = OP_CODE[OpClass.FP_DIV]
_FP_ADD = OP_CODE[OpClass.FP_ADD]
_FP_MUL = OP_CODE[OpClass.FP_MUL]
_LAT = np.array([OP_LATENCY[op] for op in OP_ORDER], dtype=np.int64)
#: Table 9: only the divides block their unit for the full latency;
#: everything else is pipelined.
_BUSY = np.array([
    _LAT[code] if code in (_DIV, _FP_DIV) else 1
    for code in range(len(OP_ORDER))
], dtype=np.int64)
_POOL_SIZES = np.array([FU_POOLS[op] for op in OP_ORDER], dtype=np.int64)

#: Memory levels in fixed order; replay stores per-access level codes.
_LEVELS = ("L1", "L2", "L3", "DRAM")


def kernel_enabled() -> bool:
    """Whether the engine should route batches through this kernel
    (``$REPRO_KERNEL=0`` disables it; the scalar oracle runs instead)."""
    value = os.environ.get("REPRO_KERNEL", "1").strip().lower()
    return value not in ("0", "false", "off", "no")


# -- SoA decode ---------------------------------------------------------------


class TraceArrays:
    """What the timing loop derives from a trace: the measured region's
    op codes and producer distances (views of the trace's own columns),
    the SYNC positions and the measured op-mix counts.  The compiled
    replays read the trace's whole columns, warmup included, directly.
    """

    __slots__ = (
        "n", "codes", "src1", "src2", "sync_pos",
        "loads", "stores", "branches", "fp_ops", "complex_decodes",
        "ifetch_blocks",
    )

    def __init__(self, trace: Trace) -> None:
        warmup = trace.warmup_ops
        codes = trace.codes[warmup:]
        counts = np.bincount(codes, minlength=len(OP_ORDER)).tolist()
        n = len(codes)
        self.n = n
        self.codes = codes
        # A distance reaching before the measured region means "ready";
        # the compiled loop checks ``dist <= i`` itself.
        self.src1 = trace.src1[warmup:]
        self.src2 = trace.src2[warmup:]
        self.sync_pos = np.flatnonzero(codes == _SYNC).astype(np.int64)
        self.loads = counts[_LOAD]
        self.stores = counts[_STORE]
        self.branches = counts[_BRANCH]
        self.fp_ops = counts[_FP_ADD] + counts[_FP_MUL] + counts[_FP_DIV]
        self.complex_decodes = counts[_COMPLEX]
        self.ifetch_blocks = (n + FETCH_BLOCK_UOPS - 1) // FETCH_BLOCK_UOPS


class MemoryImage:
    """Per-geometry replay outcome: which level served every access.

    ``fetch_levels`` holds one level code (an index into ``L1``, ``L2``,
    ``L3``, ``DRAM``) per measured fetch block, ``load_levels`` one per
    measured load and ``load_remote`` a 1 for each load of a line another
    core last wrote; all three are ``int8`` arrays filled by the
    compiled replay.  ``mem_level_counts`` is the loads' level histogram.

    The cache hierarchy's hit/miss/level sequence depends on the
    configuration only through ``shared_l2`` (the sole geometry knob of
    :func:`~repro.uarch.cache.level_geometries`); per-level *latencies*,
    the NoC penalty included, are pure config lookups applied by the
    timing loop.  The remote flags depend on the access order alone.
    """

    __slots__ = ("fetch_levels", "load_levels", "load_remote",
                 "mem_level_counts")

    def __init__(self, fetch_levels: np.ndarray, load_levels: np.ndarray,
                 load_remote: np.ndarray,
                 mem_level_counts: Dict[str, int]) -> None:
        self.fetch_levels = fetch_levels
        self.load_levels = load_levels
        self.load_remote = load_remote
        self.mem_level_counts = mem_level_counts


class OwnerTable:
    """The coherence directory of one group of cores, as a dense array.

    Every data line the group's traces load or store gets an id
    (``np.unique`` over all of them); ``owner[id]`` is the core that last
    stored to the line, or -1.  :func:`replay_memory` updates it one core
    at a time, in core order, and adds that core's cache-to-cache
    transfers to :attr:`transfers`: the order and the count of the
    oracle's :class:`~repro.uarch.cache.CoherenceDirectory` run core by
    core.
    """

    __slots__ = ("owner", "line_ids", "transfers")

    def __init__(self, traces: Sequence[Trace]) -> None:
        lines = []
        for trace in traces:
            memory = (trace.codes == _LOAD) | (trace.codes == _STORE)
            lines.append(trace.address[memory] // COHERENCE_LINE_BYTES)
        unique, ids = np.unique(np.concatenate(lines), return_inverse=True)
        self.owner = np.full(len(unique), -1, dtype=np.int64)
        #: Per core, the line id of each load and store, in trace order.
        self.line_ids = np.split(ids.astype(np.int64),
                                 np.cumsum([len(k) for k in lines[:-1]]))
        self.transfers = 0


def _kernel_state(trace: Trace) -> dict:
    """Decode/replay memo attached to the trace object itself (a trace's
    columns are read-only, so its decode never invalidates); it dies
    with the trace."""
    state = getattr(trace, "_kernel_state", None)
    if state is None:
        state = {"images": {}}
        trace._kernel_state = state
    return state


def _arrays(trace: Trace) -> TraceArrays:
    """:func:`decode`, for the replays: calling it keeps :func:`decode`'s
    call count (a traced layer) at one per timing call."""
    state = _kernel_state(trace)
    arrays = state.get("arrays")
    if arrays is None:
        arrays = state["arrays"] = TraceArrays(trace)
    return arrays


def decode(trace: Trace) -> TraceArrays:
    """The trace's :class:`TraceArrays`, memoized on the trace."""
    return _arrays(trace)


def branch_outcomes(trace: Trace) -> Tuple[np.ndarray, int]:
    """Per-branch predictor outcomes for the measured region (``1`` =
    predicted correctly) and their misprediction count, memoized.

    The tournament predictor is fully configuration-independent, so the
    warmup-train + measured-predict replay is a pure function of the
    trace.
    """
    state = _kernel_state(trace)
    outcomes = state.get("branches")
    if outcomes is None:
        arrays = _arrays(trace)
        correct = np.empty(arrays.branches, dtype=np.uint8)
        _check(_library(_BUILD_DIR).branch_outcomes(
            len(trace.codes), trace.codes, trace.pc,
            trace.taken.view(np.uint8), trace.warmup_ops, _BRANCH,
            TABLE_ENTRIES, LOCAL_HISTORY_BITS, correct,
        ))
        outcomes = state["branches"] = (
            correct, len(correct) - int(np.count_nonzero(correct)),
        )
    return outcomes


def _geometry(shared_l2: bool) -> np.ndarray:
    """``[sets, ways, line_bytes]`` of IL1, DL1, L2 and L3, the rows
    timing.c's ``replay_memory`` reads."""
    return np.array([
        [size // (ways * line_bytes), ways, line_bytes]
        for _, size, ways, line_bytes in level_geometries(shared_l2)
    ], dtype=np.int64)


_NO_OWNERS = np.empty(0, dtype=np.int64)


def replay_memory(trace: Trace, donor_config: CoreConfig, core_id: int = 0,
                  coherence: Optional[OwnerTable] = None) -> MemoryImage:
    """Replay the resident lines' warm state, then the warmup and
    measured accesses, through the cache hierarchy (and, when given, the
    group's coherence directory), recording the level that served each
    instruction block and each load.

    The C walks the trace's resident segments, not line arrays, and
    takes tags and sets with shifts and masks, so every level's set
    count and line size must be a power of two (a geometry that is not
    raises :class:`ValueError`).

    The donor config only contributes its cache *geometry*
    (``shared_l2``); single-core images are memoized on the trace per
    geometry.  Multicore replays are coupled across cores through the
    shared directory, so their caller sequences and memoizes them.
    """
    single = coherence is None
    if single:
        images: Dict[bool, MemoryImage] = _kernel_state(trace)["images"]
        image = images.get(donor_config.shared_l2)
        if image is not None:
            return image
        owner = line_ids = _NO_OWNERS
    else:
        owner = coherence.owner
        line_ids = coherence.line_ids[core_id]
    arrays = _arrays(trace)
    if not single and len(line_ids) != np.count_nonzero(
            (trace.codes == _LOAD) | (trace.codes == _STORE)):
        raise ValueError(f"coherence ids do not match trace {trace.name!r}")
    fetch_levels = np.empty(arrays.ifetch_blocks, dtype=np.int8)
    load_levels = np.empty(arrays.loads, dtype=np.int8)
    load_remote = np.empty(arrays.loads, dtype=np.int8)
    counts = np.zeros(len(_LEVELS), dtype=np.int64)
    transfers = np.zeros(1, dtype=np.int64)
    _check(_library(_BUILD_DIR).replay_memory(
        len(trace.codes), trace.codes, trace.pc, trace.address,
        trace.warmup_ops, _LOAD, _STORE, FETCH_BLOCK_UOPS, PREFETCH_DEGREE,
        _geometry(donor_config.shared_l2),
        len(trace.data_segments), trace.data_segments,
        len(trace.code_segments), trace.code_segments,
        core_id, len(owner), owner, line_ids, transfers,
        fetch_levels, load_levels, load_remote, counts,
    ))
    image = MemoryImage(fetch_levels, load_levels, load_remote, {
        level: count
        for level, count in zip(_LEVELS, counts.tolist()) if count
    })
    if single:
        images[donor_config.shared_l2] = image
    else:
        coherence.transfers += int(transfers[0])
    return image


# -- the compiled library (timing.c, built on first use) ----------------------

#: The library's C source.  Every per-config, per-profile and model
#: constant is a call argument, so one build serves every timing and cache
#: geometry and every profile.
_SOURCE = Path(__file__).with_name("timing.c")
_CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

#: Where builds live: beside this package's bytecode.  A checkout can
#: write there, and ``pkgutil.walk_packages`` never walks it (a ``.so``
#: beside the modules would be taken for a broken extension module).
_BUILD_DIR = Path(__file__).resolve().parent / "__pycache__"

#: Why a failed build stops every simulation, the oracle's included.
_NEEDED = ("trace synthesis, the replays and the timing loop are compiled C, "
           "so every simulation needs this library")

_I8 = np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS")
_I32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_U32 = np.ctypeslib.ndpointer(np.uint32, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_INT = ctypes.c_int64
_DOUBLE = ctypes.c_double

#: Each entry point's parameters, in timing.c's order.
_SIGNATURES = {
    "time_configs": (
        _INT, _I8, _I32, _I32, _U8,   # n, codes, src1, src2, correct
        _I8, _I8, _I8,                # fetch / load levels, load_remote
        _INT, _I64,                   # nsync, sync_pos
        _I64, _I64, _I64, _INT,       # latency, busy, pool tables; ncodes
        _INT, _INT, _INT, _INT, _INT,  # load/store/branch/complex/fp_div codes
        _INT, _INT, _INT, _INT,       # front end, fetch block, FP-div, prune
        _INT, _I64, _I64, _I64,       # nconfigs, params, results, sync_commit
    ),
    "replay_memory": (
        _INT, _I8, _I64, _I64, _INT,  # n, codes, pc, address, warmup
        _INT, _INT, _INT, _INT,       # load/store codes, fetch block, degree
        _I64,                         # geometry
        _INT, _I64, _INT, _I64,       # resident data / code segments
        _INT, _INT, _I64, _I64, _I64,  # core, nowner, owner, line_id, transfers
        _I8, _I8, _I8, _I64,          # fetch / load levels, remote, counts
    ),
    "branch_outcomes": (
        _INT, _I8, _I64, _U8, _INT,   # n, codes, pc, taken, warmup
        _INT, _INT, _INT, _U8,        # branch code, table sizes, correct
    ),
    "generate_trace": (
        _INT, _U32, _I64,             # n, MT19937 state, code/stream pointers
        _INT, _F64, _I8,              # op-mix cut points and their codes
        _INT, _INT, _INT, _INT, _INT,  # alu/sync/load/store/branch codes
        _INT, _INT, _INT,             # fp add/mul/div codes
        _INT, _INT, _INT,             # first barrier, barrier gap, code bytes
        _INT, _I64, _F64,             # branch sites: count, pcs, biases
        _DOUBLE, _DOUBLE,             # serial fraction, dependence rate
        _DOUBLE, _DOUBLE, _DOUBLE,    # shared / hot cuts, stream fraction
        _INT, _INT, _INT,             # private base, hot bytes, stream end
        _INT, _INT, _INT,             # stride, pool lines, pool stride
        _INT, _INT,                   # shared base and span
        _I8, _I32, _I32, _I64,        # codes, src1, src2, address
        _I64, _U8, _I32,              # pc, taken, barrier
    ),
}

#: ``results`` columns: cycles, occupied window slots, then the stalls
#: in :data:`STALL_CAUSES` order.
_RESULT_COLUMNS = 2 + len(STALL_CAUSES)


def _build(target: Path) -> None:
    """Compile :data:`_SOURCE` to ``target``.

    gcc writes a temporary file in the same directory, which is then
    renamed into place: concurrent builders (pytest or pool workers) each
    install a complete library and never load a partial one.  Once it
    is in place, every other ``timing-*.so`` there is removed: the
    content key names the one build this source and these flags load.
    """
    compiler = shutil.which("gcc")
    if compiler is None:
        raise RuntimeError(
            f"cannot build the compiled kernel in {target.parent}: no C "
            f"compiler (gcc) is on PATH; install gcc ({_NEEDED})"
        )
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(prefix=f".{target.stem}-",
                                        suffix=".tmp", dir=target.parent)
    except OSError as error:
        raise RuntimeError(
            f"cannot build the compiled kernel with gcc in {target.parent} "
            f"({error}); make the directory writable ({_NEEDED})"
        ) from error
    os.close(handle)
    try:
        done = subprocess.run(
            [compiler, *_CFLAGS, "-o", temp, str(_SOURCE), "-lm"],
            capture_output=True, text=True,
        )
        if done.returncode:
            raise RuntimeError(
                f"gcc failed to build the compiled kernel in {target.parent} "
                f"({done.stderr.strip()}); fix the build ({_NEEDED})"
            )
        os.chmod(temp, 0o755)  # mkstemp made it private to this user
        os.replace(temp, target)
    finally:
        Path(temp).unlink(missing_ok=True)
    # Concurrent builders' temporaries (``.timing-*.tmp``) do not match.
    for stale in target.parent.glob("timing-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)


@functools.lru_cache(maxsize=None)
def _library(directory: Path) -> ctypes.CDLL:
    """The compiled library, built into ``directory`` unless a build of
    this source is already there, with every entry point's signature set.

    The build is named by a content key — the source, the flags and the
    machine — so an edited ``timing.c`` never loads a stale library.
    """
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update(" ".join(_CFLAGS).encode())
    key.update(platform.machine().encode())
    target = directory / f"timing-{key.hexdigest()[:16]}.so"
    if not target.exists():
        _build(target)
    library = ctypes.CDLL(str(target))
    for name, argtypes in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = ctypes.c_int
    return library


def _check(status: int) -> None:
    """Raise unless a compiled entry point returned 0 (its outputs are
    incomplete otherwise)."""
    if status == -1:
        raise MemoryError("the compiled kernel could not allocate its state")
    if status == -3:  # CPython's error for the randrange it replays
        raise ValueError("empty range for randrange()")
    if status == -4:
        raise ValueError("a cache level's set count and line size must be "
                         "powers of two, and it needs at least one way")
    if status:
        raise RuntimeError(f"the compiled kernel failed with status {status}")


def _config_row(config: CoreConfig, noc_penalty: int) -> List[int]:
    """One config's ``params`` row, in timing.c's ``P_*`` column order."""
    for field in ("dispatch_width", "issue_width", "commit_width",
                  "rob_entries", "iq_entries", "lq_entries", "sq_entries"):
        if getattr(config, field) < 1:
            raise ValueError(f"{config.name}: {field} must be at least 1")
    il1 = config.il1_cycles
    l2 = config.l2_cycles
    l3 = config.l3_cycles
    dram = config.dram_cycles
    load_extra = config.load_to_use_cycles - 4  # 0 in 2D, -1 in 3D
    return [
        config.dispatch_width, config.issue_width, config.commit_width,
        config.rob_entries, config.iq_entries, config.lq_entries,
        config.sq_entries, int(config.hetero),
        max(1, config.branch_mispredict_cycles - FRONT_END_DEPTH),
        max(2, noc_penalty),
        # Fetch penalty per fetch level: ``access.latency - il1_cycles``.
        0, l2 - il1, l3 - il1, l3 + dram - il1,
        # Load latency per load level, load-to-use adjustment included.
        config.dl1_cycles + load_extra,
        l2 + load_extra,
        l3 + noc_penalty + load_extra,
        l3 + noc_penalty + dram + load_extra,
    ]


def _time_configs(trace: Trace, arrays: TraceArrays,
                  outcomes: Tuple[np.ndarray, int], image: MemoryImage,
                  configs: Sequence[CoreConfig],
                  noc_penalty: int = 0) -> List[SimResult]:
    """Time every config sharing one memory image in one compiled call."""
    corrects, mispredictions = outcomes
    if (len(corrects), len(image.load_levels), len(image.load_remote),
            len(image.fetch_levels)) != (arrays.branches, arrays.loads,
                                         arrays.loads, arrays.ifetch_blocks):
        raise ValueError(f"replay state does not match trace {trace.name!r}")
    params = np.array([_config_row(config, noc_penalty) for config in configs],
                      dtype=np.int64)
    rows = np.empty((len(configs), _RESULT_COLUMNS), dtype=np.int64)
    syncs = np.empty((len(configs), len(arrays.sync_pos)), dtype=np.int64)
    _check(_library(_BUILD_DIR).time_configs(
        arrays.n, arrays.codes, arrays.src1, arrays.src2, corrects,
        image.fetch_levels, image.load_levels, image.load_remote,
        len(arrays.sync_pos), arrays.sync_pos,
        _LAT, _BUSY, _POOL_SIZES, len(OP_ORDER),
        _LOAD, _STORE, _BRANCH, _COMPLEX, _FP_DIV,
        FRONT_END_DEPTH, FETCH_BLOCK_UOPS, FP_DIV_ISSUE_INTERVAL,
        _ooo.PRUNE_INTERVAL,
        len(configs), params, rows, syncs,
    ))
    results = []
    for config, row, sync_commit in zip(configs, rows.tolist(),
                                        syncs.tolist()):
        stats = SimStats(
            uops=arrays.n,
            cycles=row[0],
            branches=arrays.branches,
            mispredictions=mispredictions,
            loads=arrays.loads,
            stores=arrays.stores,
            fp_ops=arrays.fp_ops,
            complex_decodes=arrays.complex_decodes,
            mem_level_counts=dict(image.mem_level_counts),
            ifetch_blocks=arrays.ifetch_blocks,
            sync_commit_cycles=sync_commit,
            stall_cycles=dict(zip(STALL_CAUSES, row[2:])),
            tracked_limiter_cycles=row[1],
        )
        results.append(SimResult(
            config_name=config.name,
            trace_name=trace.name,
            cycles=stats.cycles,
            frequency=config.frequency,
            stats=stats,
        ))
    return results


# -- public entry points ------------------------------------------------------


def simulate_core(trace: Trace, config: CoreConfig, image: MemoryImage,
                  noc_penalty: int = 0) -> SimResult:
    """Time one (trace, config) pair against a prebuilt memory image
    (the multicore batch driver's per-core primitive)."""
    return _time_configs(trace, decode(trace), branch_outcomes(trace), image,
                         [config], noc_penalty)[0]


def run_trace_batch(configs: Sequence[CoreConfig],
                    trace: Trace) -> List[SimResult]:
    """Simulate ``trace`` under every config in one batched evaluation.

    Cycle-exact against ``run_trace(config, trace)`` for each config:
    the trace is decoded once, the predictor replayed once, the caches
    replayed once per L2 geometry, and each geometry's configs timed in
    one compiled call.  Results come back in config order.
    """
    configs = list(configs)
    if not configs:
        return []
    arrays = decode(trace)
    outcomes = branch_outcomes(trace)
    results: List[Optional[SimResult]] = [None] * len(configs)
    groups: Dict[bool, List[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(config.shared_l2, []).append(index)
    for indices in groups.values():
        image = replay_memory(trace, configs[indices[0]])
        batch = _time_configs(trace, arrays, outcomes, image,
                              [configs[k] for k in indices])
        for index, result in zip(indices, batch):
            results[index] = result
    return results


__all__ = [
    "MemoryImage",
    "OwnerTable",
    "TraceArrays",
    "branch_outcomes",
    "decode",
    "kernel_enabled",
    "replay_memory",
    "run_trace_batch",
    "simulate_core",
]
