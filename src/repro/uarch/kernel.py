"""Batched structure-of-arrays timing kernel.

Every figure/table sweep re-simulates the *same trace* under
configurations that differ only in latencies, widths and frequency.  The
scalar :class:`~repro.uarch.ooo.OutOfOrderCore` interleaves three kinds
of work per micro-op:

1. **trace decoding** — slicing the trace's columns into the measured
   region,
2. **microarchitectural state that is configuration-independent** — the
   branch predictor outcome and the cache level each access is served
   from depend only on the access *sequence* and the L2 geometry
   (``shared_l2`` is the single config knob that changes cache contents;
   per-level latencies are pure table lookups),
3. **timing recurrences** — the only part that actually varies per
   configuration.

This kernel factors the three apart.  A trace's columns are decoded
**once** into contiguous arrays (op codes, producer distances); the
predictor and cache hierarchy are replayed **once per cache geometry**
into per-access level/outcome arrays; and the timing recurrences are
then evaluated against those arrays by one compiled C loop
(``timing.c``, built with the system ``gcc`` on first use and called
through :mod:`ctypes`), with no cache/predictor/decode work left in it.

:func:`run_trace_batch` and :func:`simulate_core` are the public entry
points; they are **cycle-exact** against the scalar oracle — same
``SimResult``, same stats, same stall attribution — which the property
tests assert op-for-op.  The scalar :meth:`OutOfOrderCore.run` remains
the reference implementation (the same oracle pattern as the thermal
solver's reference path), and ``$REPRO_KERNEL=0`` runs it instead.
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
from repro.uarch.bpred import TournamentPredictor
from repro.uarch.cache import (
    PREFETCH_DEGREE,
    CacheHierarchy,
    CoherenceDirectory,
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
    """Flat, configuration-independent decode of a trace's measured region:
    the op-code and producer-distance columns as contiguous arrays (what
    the compiled loop reads), the SYNC positions and the op-mix counts."""

    __slots__ = (
        "n", "codes", "src1", "src2", "sync_pos",
        "loads", "stores", "branches", "fp_ops", "complex_decodes",
        "ifetch_blocks",
    )

    def __init__(self, trace: Trace) -> None:
        warmup = trace.warmup_ops
        codes = np.array(trace.codes[warmup:], dtype=np.int8)
        counts = np.bincount(codes, minlength=len(OP_ORDER)).tolist()
        if len(counts) > len(OP_ORDER):
            raise ValueError(f"trace {trace.name!r} has an unknown op code")
        n = len(codes)
        self.n = n
        self.codes = codes
        # A distance reaching before the measured region means "ready";
        # the compiled loop checks ``dist <= i`` itself.
        self.src1 = np.array(trace.src1[warmup:], dtype=np.int32)
        self.src2 = np.array(trace.src2[warmup:], dtype=np.int32)
        self.sync_pos = np.flatnonzero(codes == _SYNC).astype(np.int64)
        self.loads = counts[_LOAD]
        self.stores = counts[_STORE]
        self.branches = counts[_BRANCH]
        self.fp_ops = counts[_FP_ADD] + counts[_FP_MUL] + counts[_FP_DIV]
        self.complex_decodes = counts[_COMPLEX]
        self.ifetch_blocks = (n + FETCH_BLOCK_UOPS - 1) // FETCH_BLOCK_UOPS


class MemoryImage:
    """Per-geometry replay outcome: which level served every access.

    The cache hierarchy's hit/miss/level sequence depends on the
    configuration only through ``shared_l2`` (the sole geometry knob in
    :class:`CacheHierarchy`); per-level *latencies* are pure config
    lookups applied afterwards.  The coherence ``remote`` flags depend
    on the access order alone.
    """

    __slots__ = ("fetch_levels", "load_levels", "load_remote",
                 "mem_level_counts")

    def __init__(self, fetch_levels, load_levels, load_remote,
                 mem_level_counts) -> None:
        self.fetch_levels = np.array(fetch_levels, dtype=np.int8)
        self.load_levels = np.array(load_levels, dtype=np.int8)
        self.load_remote = np.array(load_remote, dtype=np.int8)
        self.mem_level_counts = mem_level_counts


def _kernel_state(trace: Trace) -> dict:
    """Decode/replay memo attached to the trace object itself (a trace
    is immutable once generated, so its decode never invalidates)."""
    state = getattr(trace, "_kernel_state", None)
    if state is None:
        state = {"images": {}}
        trace._kernel_state = state
    return state


def decode(trace: Trace) -> TraceArrays:
    """SoA decode of the measured region, memoized on the trace."""
    state = _kernel_state(trace)
    arrays = state.get("arrays")
    if arrays is None:
        arrays = TraceArrays(trace)
        state["arrays"] = arrays
    return arrays


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
        predict_and_train = TournamentPredictor().predict_and_train
        pcs = trace.pc
        taken = trace.taken
        warmup = trace.warmup_ops
        measured = []
        for i, code in enumerate(trace.codes):
            if code == _BRANCH:
                correct = predict_and_train(pcs[i], taken[i])
                if i >= warmup:
                    measured.append(correct)
        outcomes = state["branches"] = (
            np.array(measured, dtype=np.uint8), measured.count(False),
        )
    return outcomes


def _level_walker(cache):
    """Hit/miss-only access closure over one cache level's raw tag lists.

    Replay needs the serving *level*; latencies are per-config lookups
    applied later.  Walking the per-set lists directly skips the
    ``AccessResult`` allocation and hit/miss bookkeeping of
    :meth:`SetAssociativeCache.access` — the hierarchy is replay-private,
    so its counters are never read.  The closure walks and reorders the
    level's own per-set lists, so it sees the warm state ``preload``
    put there.
    """
    lines = cache._lines
    sets = cache.sets
    ways = cache.ways
    line_bytes = cache.line_bytes

    def walk(address: int) -> bool:
        tag = address // line_bytes
        line = lines[tag % sets]
        if tag in line:
            line.remove(tag)
            line.append(tag)
            return True
        line.append(tag)
        if len(line) > ways:
            line.pop(0)
        return False

    return walk


def replay_memory(trace: Trace, donor_config: CoreConfig, core_id: int = 0,
                  coherence: Optional[CoherenceDirectory] = None,
                  noc_penalty: int = 0) -> MemoryImage:
    """Replay preload + warmup + measured accesses through the real
    cache hierarchy (and coherence directory, when given), recording the
    level that served each instruction block and each load.

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
    caches = CacheHierarchy(donor_config, core_id, None)
    if trace.resident_data or trace.resident_code:
        caches.preload(trace.resident_data, trace.resident_code)
    codes = trace.codes
    pcs = trace.pc
    addresses = trace.address
    warmup = trace.warmup_ops
    il1 = _level_walker(caches.il1)
    dl1 = _level_walker(caches.dl1)
    l2 = _level_walker(caches.l2)
    l3 = _level_walker(caches.l3)
    l2_line = caches.l2.line_bytes
    prefetch_spans = tuple(
        ahead * l2_line for ahead in range(1, PREFETCH_DEGREE + 1)
    )
    account = coherence.account if coherence is not None else None

    def fetch_code(address: int) -> int:
        """Level code of an instruction fetch (IL1 -> L2 -> L3 -> DRAM)."""
        if il1(address):
            return 0
        if l2(address):
            return 1
        if l3(address):
            return 2
        return 3

    def data_code(address: int) -> int:
        """Level code of a data access, including the L2-miss stream
        prefetch touches, in :meth:`CacheHierarchy.data_access` order."""
        if dl1(address):
            return 0
        if l2(address):
            return 1
        for span in prefetch_spans:
            next_line = address + span
            l2(next_line)
            l3(next_line)
        if l3(address):
            return 2
        return 3

    # Warmup replay, cache (and coherence) side only: the oracle's
    # ``warmup`` touches the predictor too, but the two systems never
    # interact, so the split replay is exact.  The directory account runs
    # *before* the cache lookup, matching ``CacheHierarchy.data_access``.
    for i in range(warmup):
        if i % FETCH_BLOCK_UOPS == 0:
            pc = pcs[i]
            fetch_code(pc if pc else i * 4)
        op = codes[i]
        if op == _LOAD or op == _STORE:
            address = addresses[i]
            if account is not None:
                account(core_id, address, op == _STORE, noc_penalty)
            data_code(address)
    fetch_levels: List[int] = []
    load_levels: List[int] = []
    load_remote: List[int] = []
    code_counts = [0, 0, 0, 0]
    for i in range(warmup, len(codes)):
        measured_index = i - warmup
        if measured_index % FETCH_BLOCK_UOPS == 0:
            pc = pcs[i]
            fetch_levels.append(
                fetch_code(pc if pc else measured_index * 4)
            )
        op = codes[i]
        if op == _LOAD:
            address = addresses[i]
            extra = 0
            if account is not None:
                extra = account(core_id, address, False, noc_penalty)
            code = data_code(address)
            code_counts[code] += 1
            load_levels.append(code)
            load_remote.append(1 if extra else 0)
        elif op == _STORE:
            address = addresses[i]
            if account is not None:
                account(core_id, address, True, noc_penalty)
            data_code(address)
    counts = {
        level: count
        for level, count in zip(_LEVELS, code_counts) if count
    }
    image = MemoryImage(fetch_levels, load_levels, load_remote, counts)
    if single:
        images[donor_config.shared_l2] = image
    return image


# -- the timing loop (timing.c, compiled on first use) ------------------------

#: The loop's C source.  Every per-config and model constant is a call
#: argument, so one build serves every timing geometry.
_SOURCE = Path(__file__).with_name("timing.c")
_CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

#: Where builds live: beside this package's bytecode.  A checkout can
#: write there, and ``pkgutil.walk_packages`` never walks it (a ``.so``
#: beside the modules would be taken for a broken extension module).
_BUILD_DIR = Path(__file__).resolve().parent / "__pycache__"

_ORACLE_HINT = "or set $REPRO_KERNEL=0 to time with the scalar OOO oracle"

_I8 = np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS")
_I32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_INT = ctypes.c_int64

#: ``time_configs``'s parameters, in timing.c's order.
_ARGTYPES = (
    _INT, _I8, _I32, _I32, _U8,   # n, codes, src1, src2, correct
    _I8, _I8, _I8,                # fetch / load levels, load_remote
    _INT, _I64,                   # nsync, sync_pos
    _I64, _I64, _I64, _INT,       # latency, busy, pool tables; ncodes
    _INT, _INT, _INT, _INT, _INT,  # load/store/branch/complex/fp_div codes
    _INT, _INT, _INT, _INT,       # front end, fetch block, FP-div, prune
    _INT, _I64, _I64, _I64,       # nconfigs, params, results, sync_commit
)

#: ``results`` columns: cycles, occupied window slots, then the stalls
#: in :data:`STALL_CAUSES` order.
_RESULT_COLUMNS = 2 + len(STALL_CAUSES)


def _build(target: Path) -> None:
    """Compile :data:`_SOURCE` to ``target``.

    gcc writes a temporary file in the same directory, which is then
    renamed into place: concurrent builders (pytest or pool workers) each
    install a complete library and never load a partial one.
    """
    compiler = shutil.which("gcc")
    if compiler is None:
        raise RuntimeError(
            "the timing kernel is compiled C and no C compiler (gcc) is on "
            f"PATH; install gcc, {_ORACLE_HINT}"
        )
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(prefix=f".{target.stem}-",
                                        suffix=".tmp", dir=target.parent)
    except OSError as error:
        raise RuntimeError(
            f"cannot build the timing kernel in {target.parent} ({error}); "
            f"make it writable, {_ORACLE_HINT}"
        ) from error
    os.close(handle)
    try:
        done = subprocess.run(
            [compiler, *_CFLAGS, "-o", temp, str(_SOURCE)],
            capture_output=True, text=True,
        )
        if done.returncode:
            raise RuntimeError(
                f"gcc failed to build the timing kernel ({done.stderr.strip()}); "
                f"fix the build, {_ORACLE_HINT}"
            )
        os.chmod(temp, 0o755)  # mkstemp made it private to this user
        os.replace(temp, target)
    finally:
        Path(temp).unlink(missing_ok=True)


@functools.lru_cache(maxsize=None)
def _timing_loop(directory: Path):
    """The compiled ``time_configs`` function, built into ``directory``
    unless a build of this source is already there.

    The build is named by a content key — the source, the flags and the
    machine — so an edited ``timing.c`` never loads a stale library.
    """
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update(" ".join(_CFLAGS).encode())
    key.update(platform.machine().encode())
    target = directory / f"timing-{key.hexdigest()[:16]}.so"
    if not target.exists():
        _build(target)
    function = ctypes.CDLL(str(target)).time_configs
    function.argtypes = _ARGTYPES
    function.restype = ctypes.c_int
    return function


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
    status = _timing_loop(_BUILD_DIR)(
        arrays.n, arrays.codes, arrays.src1, arrays.src2, corrects,
        image.fetch_levels, image.load_levels, image.load_remote,
        len(arrays.sync_pos), arrays.sync_pos,
        _LAT, _BUSY, _POOL_SIZES, len(OP_ORDER),
        _LOAD, _STORE, _BRANCH, _COMPLEX, _FP_DIV,
        FRONT_END_DEPTH, FETCH_BLOCK_UOPS, FP_DIV_ISSUE_INTERVAL,
        _ooo.PRUNE_INTERVAL,
        len(configs), params, rows, syncs,
    )
    if status == -1:
        raise MemoryError("the timing kernel could not allocate its windows")
    if status:
        raise RuntimeError(f"the timing kernel failed with status {status}")
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
    "TraceArrays",
    "branch_outcomes",
    "decode",
    "kernel_enabled",
    "replay_memory",
    "run_trace_batch",
    "simulate_core",
]
