"""Batched structure-of-arrays timing kernel.

Every figure/table sweep re-simulates the *same trace* under
configurations that differ only in latencies, widths and frequency.  The
scalar :class:`~repro.uarch.ooo.OutOfOrderCore` interleaves three kinds
of work per micro-op:

1. **trace decoding** — slicing the trace's columns into the measured
   region and deriving per-op latencies and queue positions,
2. **microarchitectural state that is configuration-independent** — the
   branch predictor outcome and the cache level each access is served
   from depend only on the access *sequence* and the L2 geometry
   (``shared_l2`` is the single config knob that changes cache contents;
   per-level latencies are pure table lookups),
3. **timing recurrences** — the only part that actually varies per
   configuration.

This kernel factors the three apart.  A trace's columns are decoded
**once** into flat arrays (op class codes, producer distances, FU
latencies); the predictor and cache hierarchy are replayed **once per
cache geometry** into per-access level/outcome arrays; and the timing
recurrences are then evaluated against those arrays by one generated
loop (:func:`_time_merged`) that walks the trace once and advances up to
:data:`MERGED_CHUNK` configurations' recurrences side by side, with no
cache/predictor/decode work left in it.

:func:`run_trace_batch` and :func:`simulate_core` are the public entry
points; they are **cycle-exact** against the scalar oracle — same
``SimResult``, same stats, same stall attribution — which the property
tests assert op-for-op.  The scalar :meth:`OutOfOrderCore.run` remains
the reference implementation (the same oracle pattern as the thermal
solver's reference path).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configs import CoreConfig
from repro.lru import LruMemo
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
_LAT = tuple(OP_LATENCY[op] for op in OP_ORDER)
#: Table 9: only the divides block their unit for the full latency;
#: everything else is pipelined.
_BUSY = tuple(
    _LAT[code] if code in (_DIV, _FP_DIV) else 1
    for code in range(len(OP_ORDER))
)
_POOL_SIZES = tuple(FU_POOLS[op] for op in OP_ORDER)

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
    slices of the trace's columns plus per-op latency/occupancy tables
    and the load/store/sync positions the queue limiters walk."""

    __slots__ = (
        "n", "codes", "src1", "src2", "lat", "busy",
        "load_pos", "store_pos", "sync_pos",
        "loads", "stores", "branches", "fp_ops", "complex_decodes",
        "ifetch_blocks",
    )

    def __init__(self, trace: Trace) -> None:
        warmup = trace.warmup_ops
        codes = trace.codes[warmup:]
        n = len(codes)
        self.n = n
        self.codes = codes
        self.src1 = _measured_distances(trace.src1[warmup:])
        self.src2 = _measured_distances(trace.src2[warmup:])
        self.lat = tuple([_LAT[code] for code in codes])
        self.busy = tuple([_BUSY[code] for code in codes])
        self.load_pos = tuple([i for i, code in enumerate(codes)
                               if code == _LOAD])
        self.store_pos = tuple([i for i, code in enumerate(codes)
                                if code == _STORE])
        self.sync_pos = tuple([i for i, code in enumerate(codes)
                               if code == _SYNC])
        self.loads = len(self.load_pos)
        self.stores = len(self.store_pos)
        self.branches = codes.count(_BRANCH)
        self.fp_ops = (codes.count(_FP_ADD) + codes.count(_FP_MUL)
                       + codes.count(_FP_DIV))
        self.complex_decodes = codes.count(_COMPLEX)
        self.ifetch_blocks = (n + FETCH_BLOCK_UOPS - 1) // FETCH_BLOCK_UOPS


def _measured_distances(distances: Tuple[int, ...]) -> Tuple[int, ...]:
    """A measured-region distance column, with producers that fall
    before the measured region encoded as ready (``0``: the oracle's
    ``dist <= i`` check never gates on them).  Only the first
    ``max(distances)`` ops can reach that far back."""
    reach = min(max(distances, default=0), len(distances))
    head = tuple([dist if dist <= i else 0
                  for i, dist in enumerate(distances[:reach])])
    return head + distances[reach:]


class MemoryImage:
    """Per-geometry replay outcome: which level served every access.

    The cache hierarchy's hit/miss/level sequence depends on the
    configuration only through ``shared_l2`` (the sole geometry knob in
    :class:`CacheHierarchy`); per-level *latencies* are pure config
    lookups applied afterwards.  The coherence ``remote`` flags depend
    on the access order alone.
    """

    __slots__ = ("fetch_levels", "load_levels", "load_remote", "any_remote",
                 "mem_level_counts")

    def __init__(self, fetch_levels, load_levels, load_remote,
                 mem_level_counts) -> None:
        self.fetch_levels = np.asarray(fetch_levels, dtype=np.int64)
        self.load_levels = np.asarray(load_levels, dtype=np.int64)
        self.load_remote = np.asarray(load_remote, dtype=np.int64)
        self.any_remote = bool(self.load_remote.any()) if load_remote else False
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


def branch_outcomes(trace: Trace) -> Sequence[bool]:
    """Per-branch predictor outcomes for the measured region, memoized.

    The tournament predictor is fully configuration-independent, so the
    warmup-train + measured-predict replay is a pure function of the
    trace.
    """
    state = _kernel_state(trace)
    corrects = state.get("branches")
    if corrects is None:
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
        corrects = state["branches"] = tuple(measured)
    return corrects


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


# -- per-config latency tables ------------------------------------------------


def _load_done_terms(config: CoreConfig, image: MemoryImage,
                     noc_penalty: int) -> np.ndarray:
    """Per-load ``access.latency + load_extra`` under one config."""
    table = np.array(
        [
            config.dl1_cycles,
            config.l2_cycles,
            config.l3_cycles + noc_penalty,
            config.l3_cycles + noc_penalty + config.dram_cycles,
        ],
        dtype=np.int64,
    )
    terms = table[image.load_levels]
    if image.any_remote:
        terms = terms + image.load_remote * max(2, noc_penalty)
    return terms + (config.load_to_use_cycles - 4)


def _fetch_penalties(config: CoreConfig, image: MemoryImage) -> np.ndarray:
    """Per-block ``access.latency - il1_cycles`` under one config."""
    il1 = config.il1_cycles
    table = np.array(
        [
            0,
            config.l2_cycles - il1,
            config.l3_cycles - il1,
            config.l3_cycles + config.dram_cycles - il1,
        ],
        dtype=np.int64,
    )
    return table[image.fetch_levels]


def _build_result(trace, arrays, corrects, image, config, commit_at,
                  stall_cycles, sync_commit_cycles,
                  tracked_limiter_cycles) -> SimResult:
    stats = SimStats()
    stats.uops = arrays.n
    stats.cycles = int(commit_at[-1]) if arrays.n else 0
    stats.branches = arrays.branches
    stats.mispredictions = sum(1 for c in corrects if not c)
    stats.loads = arrays.loads
    stats.stores = arrays.stores
    stats.fp_ops = arrays.fp_ops
    stats.complex_decodes = arrays.complex_decodes
    stats.ifetch_blocks = arrays.ifetch_blocks
    stats.mem_level_counts = dict(image.mem_level_counts)
    stats.sync_commit_cycles = sync_commit_cycles
    stats.stall_cycles = stall_cycles
    stats.tracked_limiter_cycles = tracked_limiter_cycles
    return SimResult(
        config_name=config.name,
        trace_name=trace.name,
        cycles=stats.cycles,
        frequency=config.frequency,
        stats=stats,
    )


# -- the timing loop (config-unrolled code generation) ------------------------

#: Most configs one generated loop advances side by side.  Each extra
#: config adds its inlined recurrence to every uop step; past ~16 the
#: longer loop body and its per-config locals cost more than the shared
#: trace walk saves, so wider batches run as consecutive chunks.
MERGED_CHUNK = 16

#: Compiled loops, keyed by the chunk's timing geometry (the per-config
#: constants baked into the generated source).  Paper sweeps reuse one
#: geometry across every profile, so a sweep shape compiles once.
_MERGED_MEMO = LruMemo(cap=16)


def _merged_key(configs: Sequence[CoreConfig]) -> tuple:
    """The tuple of per-config constants the generated source depends on."""
    return tuple(
        (
            c.dispatch_width,
            c.commit_width,
            c.rob_entries,
            c.iq_entries,
            c.lq_entries,
            c.sq_entries,
            bool(c.hetero),
            max(1, c.branch_mispredict_cycles - FRONT_END_DEPTH),
            c.issue_width,
        )
        for c in configs
    )


def _merged_source(key: tuple) -> str:
    """Generate one fused scalar loop evaluating every config at once.

    The emitted function is a config-axis unrolling of
    :meth:`OutOfOrderCore.run` with all decode, cache and predictor work
    replaced by the precomputed arrays: one walk over the trace arrays
    (op code, producer distances, latency read once per uop instead of
    once per uop *per config*) drives N inlined copies of the timing
    recurrence whose widths, queue depths and refill constants are baked
    in as literals; the in-order width limiters are inlined as
    (cycle, used) pairs.  The issue-bandwidth
    and FU-pool occupancy maps are inlined as raw per-cycle dicts with
    the same first-fit walks, increments and prune schedule as
    :class:`~repro.uarch.ooo._FuPool` / ``_PerCycleBandwidth``, so the
    schedule and the tracked-cycle telemetry stay oracle-identical.
    """
    N = len(key)
    lines: List[str] = []
    a = lines.append
    js = range(N)
    a("def _merged(n, codes, src1, src2, lat_l, busy_l, corrects,")
    a("            load_pos, store_pos, pool_sizes, tables):")
    for j in js:
        a(f"    ld_{j}, fp_{j} = tables[{j}]")
        a(f"    pu_{j} = [dict() for _ in range({len(_POOL_SIZES)})]")
        a(f"    au_{j} = {{}}")
        a(f"    cp_{j} = [0] * n")
        a(f"    il_{j} = [0] * n")
        a(f"    cm_{j} = [0] * n")
        a(f"    fbr_{j} = rf_{j} = fc_{j} = fu_{j} = 0")
        a(f"    rc_{j} = ru_{j} = cc_{j} = cu_{j} = cl_{j} = 0")
        a(f"    lfp_{j} = -{FP_DIV_ISSUE_INTERVAL}")
        a(f"    sfi_{j} = sfr_{j} = srb_{j} = srob_{j} = siq_{j} = 0")
        a(f"    slq_{j} = ssq_{j} = sdc_{j} = sop_{j} = sfu_{j} = sbw_{j} = 0")
    a("    k_load = k_store = k_branch = k_block = 0")
    a(f"    prune_at = {_ooo.PRUNE_INTERVAL}")
    a("    for i in range(n):")
    a("        code = codes[i]")
    a(f"        if i % {FETCH_BLOCK_UOPS} == 0:")
    for j in js:
        a(f"            p = fp_{j}[k_block]")
        a(f"            b = fbr_{j}")
        a(f"            if rf_{j} > b:")
        a(f"                sfr_{j} += rf_{j} - b")
        a(f"                b = rf_{j}")
        a("            if p > 0:")
        a(f"                sfi_{j} += p")
        a("                b += p")
        a(f"            fbr_{j} = b")
    a("            k_block += 1")
    for j, (dw, _cw, rob, iqn, _lq, _sq, _het, _rf, _iw) in enumerate(key):
        a(f"        e = fbr_{j} if fbr_{j} >= rf_{j} else rf_{j}")
        a(f"        if e > fc_{j}:")
        a(f"            fc_{j} = e")
        a(f"            fu_{j} = 0")
        a(f"        if fu_{j} >= {dw * 2}:")
        a(f"            fc_{j} += 1")
        a(f"            fu_{j} = 0")
        a(f"        fu_{j} += 1")
        a(f"        e_{j} = fc_{j} + {FRONT_END_DEPTH}")
        a(f"        if i >= {rob}:")
        a(f"            g = cm_{j}[i - {rob}]")
        a(f"            if g > e_{j}:")
        a(f"                srob_{j} += g - e_{j}")
        a(f"                e_{j} = g")
        a(f"        if i >= {iqn}:")
        a(f"            g = il_{j}[i - {iqn}]")
        a(f"            if g > e_{j}:")
        a(f"                siq_{j} += g - e_{j}")
        a(f"                e_{j} = g")
    a(f"        if code == {_LOAD}:")
    for j, (_dw, _cw, _rob, _iq, lqn, _sq, _het, _rf, _iw) in enumerate(key):
        a(f"            if k_load >= {lqn}:")
        a(f"                g = cm_{j}[load_pos[k_load - {lqn}]]")
        a(f"                if g > e_{j}:")
        a(f"                    slq_{j} += g - e_{j}")
        a(f"                    e_{j} = g")
    a(f"        elif code == {_STORE}:")
    for j, (_dw, _cw, _rob, _iq, _lq, sqn, _het, _rf, _iw) in enumerate(key):
        a(f"            if k_store >= {sqn}:")
        a(f"                g = cm_{j}[store_pos[k_store - {sqn}]]")
        a(f"                if g > e_{j}:")
        a(f"                    ssq_{j} += g - e_{j}")
        a(f"                    e_{j} = g")
    if any(entry[6] for entry in key):
        a(f"        elif code == {_COMPLEX}:")
        for j, entry in enumerate(key):
            if entry[6]:
                a(f"            e_{j} += 1")
                a(f"            sdc_{j} += 1")
    for j, (dw, _cw, _rob, _iq, _lq, _sq, _het, _rf, _iw) in enumerate(key):
        a(f"        if e_{j} > rc_{j}:")
        a(f"            rc_{j} = e_{j}")
        a(f"            ru_{j} = 0")
        a(f"        if ru_{j} >= {dw}:")
        a(f"            rc_{j} += 1")
        a(f"            ru_{j} = 0")
        a(f"        ru_{j} += 1")
        a(f"        if rc_{j} > e_{j}:")
        a(f"            srb_{j} += rc_{j} - e_{j}")
        a(f"        rd_{j} = rc_{j} + 1")
    a("        d = src1[i]")
    a("        if d:")
    for j in js:
        a(f"            p = cp_{j}[i - d]")
        a(f"            if p > rd_{j}:")
        a(f"                rd_{j} = p")
    a("        d = src2[i]")
    a("        if d:")
    for j in js:
        a(f"            p = cp_{j}[i - d]")
        a(f"            if p > rd_{j}:")
        a(f"                rd_{j} = p")
    for j in js:
        a(f"        if rd_{j} > rc_{j} + 1:")
        a(f"            sop_{j} += rd_{j} - rc_{j} - 1")
    a(f"        if code == {_FP_DIV}:")
    for j in js:
        a(f"            g = lfp_{j} + {FP_DIV_ISSUE_INTERVAL}")
        a(f"            if g > rd_{j}:")
        a(f"                sfu_{j} += g - rd_{j}")
        a(f"                rd_{j} = g")
    a("        busy = busy_l[i]")
    a("        cnt = pool_sizes[code]")
    a("        if busy == 1:")
    for j in js:
        a(f"            d_ = pu_{j}[code]")
        a(f"            c_ = rd_{j}")
        a("            v = d_.get(c_, 0)")
        a("            while v >= cnt:")
        a("                c_ += 1")
        a("                v = d_.get(c_, 0)")
        a("            d_[c_] = v + 1")
        a(f"            st_{j} = c_")
    a("        else:")
    for j in js:
        a(f"            d_ = pu_{j}[code]")
        a(f"            c_ = rd_{j}")
        a("            while True:")
        a("                k = 0")
        a("                while k < busy and d_.get(c_ + k, 0) < cnt:")
        a("                    k += 1")
        a("                if k == busy:")
        a("                    break")
        a("                c_ += 1")
        a("            for k in range(busy):")
        a("                d_[c_ + k] = d_.get(c_ + k, 0) + 1")
        a(f"            st_{j} = c_")
    for j, (_dw, _cw, _rob, _iq, _lq, _sq, _het, _rf, iw) in enumerate(key):
        a(f"        if st_{j} > rd_{j}:")
        a(f"            sfu_{j} += st_{j} - rd_{j}")
        a(f"        c_ = st_{j}")
        a(f"        while au_{j}.get(c_, 0) >= {iw}:")
        a("            c_ += 1")
        a(f"        au_{j}[c_] = au_{j}.get(c_, 0) + 1")
        a(f"        if c_ > st_{j}:")
        a(f"            sbw_{j} += c_ - st_{j}")
        a(f"        il_{j}[i] = c_")
        a(f"        is_{j} = c_")
    a(f"        if code == {_LOAD}:")
    for j in js:
        a(f"            dn_{j} = is_{j} + ld_{j}[k_load]")
    a("            k_load += 1")
    a("        else:")
    a("            lat = lat_l[i]")
    for j in js:
        a(f"            dn_{j} = is_{j} + lat")
    a(f"            if code == {_BRANCH}:")
    a("                if not corrects[k_branch]:")
    for j, (_dw, _cw, _rob, _iq, _lq, _sq, _het, refill, _iw) \
            in enumerate(key):
        a(f"                    g = dn_{j} + {refill}")
        a(f"                    if g > rf_{j}:")
        a(f"                        rf_{j} = g")
    a("                k_branch += 1")
    a(f"            elif code == {_STORE}:")
    a("                k_store += 1")
    a(f"            elif code == {_FP_DIV}:")
    for j in js:
        a(f"                lfp_{j} = is_{j}")
    for j, (_dw, cw, _rob, _iq, _lq, _sq, _het, _rf, _iw) in enumerate(key):
        a(f"        cp_{j}[i] = dn_{j}")
        a(f"        t = dn_{j} + 1")
        a(f"        if t < cl_{j}:")
        a(f"            t = cl_{j}")
        a(f"        if t > cc_{j}:")
        a(f"            cc_{j} = t")
        a(f"            cu_{j} = 0")
        a(f"        if cu_{j} >= {cw}:")
        a(f"            cc_{j} += 1")
        a(f"            cu_{j} = 0")
        a(f"        cu_{j} += 1")
        a(f"        cm_{j}[i] = cc_{j}")
        a(f"        cl_{j} = cc_{j}")
    a("        if i >= prune_at:")
    a(f"            prune_at = i + {_ooo.PRUNE_INTERVAL}")
    for j in js:
        a(f"            w = rc_{j}")
        a(f"            au_{j} = {{c: v for c, v in au_{j}.items()"
          f" if c >= w}}")
        a(f"            pu_{j} = [{{c: v for c, v in d_.items() if c >= w}}"
          f" for d_ in pu_{j}]")
    a("    return [")
    for j in js:
        a(f"        (cm_{j}, {{")
        a(f"            'fetch_icache': sfi_{j},")
        a(f"            'fetch_redirect': sfr_{j},")
        a(f"            'rename_bw': srb_{j},")
        a(f"            'rob': srob_{j},")
        a(f"            'iq': siq_{j},")
        a(f"            'lq': slq_{j},")
        a(f"            'sq': ssq_{j},")
        a(f"            'decode': sdc_{j},")
        a(f"            'operand': sop_{j},")
        a(f"            'fu': sfu_{j},")
        a(f"            'issue_bw': sbw_{j},")
        a(f"        }}, len(au_{j}) + sum(map(len, pu_{j}))),")
    a("    ]")
    a("")
    return "\n".join(lines)


def _compile_merged(key: tuple):
    """Compile the generated loop for one timing geometry."""
    namespace: Dict[str, object] = {}
    exec(compile(_merged_source(key), "<repro-kernel-merged>", "exec"),
         namespace)
    return namespace["_merged"]


def _time_merged(trace: Trace, arrays: TraceArrays,
                 corrects: Sequence[bool], image: MemoryImage,
                 configs: Sequence[CoreConfig],
                 noc_penalty: int = 0) -> List[SimResult]:
    """Time up to :data:`MERGED_CHUNK` configs sharing one memory image
    in a single walk of the trace."""
    key = _merged_key(configs)
    fn = _MERGED_MEMO.get(key, lambda: _compile_merged(key))
    tables = [
        (
            _load_done_terms(config, image, noc_penalty).tolist(),
            _fetch_penalties(config, image).tolist(),
        )
        for config in configs
    ]
    rows = fn(arrays.n, arrays.codes, arrays.src1, arrays.src2, arrays.lat,
              arrays.busy, corrects, arrays.load_pos, arrays.store_pos,
              _POOL_SIZES, tables)
    results: List[SimResult] = []
    for config, (commit_at, stalls, tracked) in zip(configs, rows):
        results.append(_build_result(
            trace, arrays, corrects, image, config, commit_at,
            stall_cycles=stalls,
            sync_commit_cycles=[commit_at[p] for p in arrays.sync_pos],
            tracked_limiter_cycles=tracked,
        ))
    return results


# -- public entry points ------------------------------------------------------


def simulate_core(trace: Trace, config: CoreConfig, image: MemoryImage,
                  noc_penalty: int = 0) -> SimResult:
    """Time one (trace, config) pair against a prebuilt memory image
    (the multicore batch driver's per-core primitive)."""
    return _time_merged(trace, decode(trace), branch_outcomes(trace), image,
                        [config], noc_penalty)[0]


def run_trace_batch(configs: Sequence[CoreConfig],
                    trace: Trace) -> List[SimResult]:
    """Simulate ``trace`` under every config in one batched evaluation.

    Cycle-exact against ``run_trace(config, trace)`` for each config:
    the trace is decoded once, the predictor replayed once, the caches
    replayed once per L2 geometry, and only the timing recurrences run
    per configuration — :data:`MERGED_CHUNK` configs per walk of the
    trace.  Results come back in config order.
    """
    configs = list(configs)
    if not configs:
        return []
    arrays = decode(trace)
    corrects = branch_outcomes(trace)
    results: List[Optional[SimResult]] = [None] * len(configs)
    groups: Dict[bool, List[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(config.shared_l2, []).append(index)
    for indices in groups.values():
        image = replay_memory(trace, configs[indices[0]])
        for lo in range(0, len(indices), MERGED_CHUNK):
            chunk = indices[lo:lo + MERGED_CHUNK]
            batch = _time_merged(trace, arrays, corrects, image,
                                 [configs[k] for k in chunk])
            for index, result in zip(chunk, batch):
                results[index] = result
    return results


__all__ = [
    "MERGED_CHUNK",
    "MemoryImage",
    "TraceArrays",
    "branch_outcomes",
    "decode",
    "kernel_enabled",
    "replay_memory",
    "run_trace_batch",
    "simulate_core",
]
