"""Out-of-order core timing model.

A trace-driven scoreboard scheduler in the style of classic trace
simulators: every micro-op's fetch, rename, issue, completion and commit
cycles are computed in program order under the structural constraints of
Table 9 —

* fetch bandwidth, front-end redirect after branch mispredictions
  (the config's ``branch_mispredict_cycles`` path),
* dispatch width gated by ROB / IQ / LQ / SQ occupancy,
* issue width, functional-unit pools and latencies (Table 9),
* the load-to-use path (4 cycles in 2D, 3 in the 3D designs),
* a real tournament predictor and a real cache hierarchy (the simulator
  consults them; nothing is a fixed probability).

The model is cycle-faithful for the interactions the paper's evaluation
depends on (frequency vs memory latency in core clocks, shorter
load-to-use and branch paths) while remaining fast enough to sweep 21
applications across six configurations in pure Python.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, List, Optional

from repro.core.configs import CoreConfig
from repro.uarch.bpred import TournamentPredictor
from repro.uarch.cache import CacheHierarchy, CoherenceDirectory
from repro.uarch.isa import (
    FP_DIV_ISSUE_INTERVAL,
    FU_POOLS,
    OP_LATENCY,
    OpClass,
    Trace,
)

#: Front-end depth from fetch to rename (cycles).
FRONT_END_DEPTH = 5

#: Micro-ops per instruction-fetch block (one IL1 access per block).
FETCH_BLOCK_UOPS = 8

#: Micro-ops between prunes of the per-cycle occupancy maps; keeps the
#: issue/FU bookkeeping bounded on arbitrarily long traces.
PRUNE_INTERVAL = 4096

#: Stall-attribution categories reported in ``SimStats.stall_cycles``
#: (every run reports all of them, zero-valued when a cause never bit).
STALL_CAUSES = (
    "fetch_icache",    # instruction-cache miss penalty at fetch
    "fetch_redirect",  # front-end squash after branch mispredictions
    "rename_bw",       # dispatch/rename bandwidth
    "rob",             # ROB full (commit of the displaced op gates rename)
    "iq",              # issue queue full
    "lq",              # load queue full
    "sq",              # store queue full
    "decode",          # complex-decode penalty (hetero top-layer decoder)
    "operand",         # waiting on producer results (dependence chains)
    "fu",              # functional-unit structural conflicts
    "issue_bw",        # issue bandwidth
)


@dataclasses.dataclass
class SimStats:
    """Activity counters collected during a run (consumed by the power
    model and the experiment reports)."""

    uops: int = 0
    cycles: int = 0
    branches: int = 0
    mispredictions: int = 0
    loads: int = 0
    stores: int = 0
    fp_ops: int = 0
    complex_decodes: int = 0
    mem_level_counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    ifetch_blocks: int = 0
    #: Commit cycle of every SYNC (barrier) marker, for barrier alignment
    #: in the multicore model.
    sync_commit_cycles: List[int] = dataclasses.field(default_factory=list)
    #: Per-stage stall attribution: cycles each structural constraint
    #: (fetch/rename/ROB/IQ/LQ/SQ/FU/issue bandwidth) or dependence chain
    #: delayed uops beyond the unconstrained schedule.  Keys are the
    #: :data:`STALL_CAUSES` names.
    stall_cycles: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Occupancy-map entries (issue + FU pools) left at the end of the
    #: run — shows the watermark pruning keeps bookkeeping bounded.
    #: Carried per result so it survives process-pool workers.
    tracked_limiter_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.uops / self.cycles if self.cycles else 0.0

@dataclasses.dataclass(frozen=True)
class SimResult:
    """Outcome of simulating one trace on one configuration."""

    config_name: str
    trace_name: str
    cycles: int
    frequency: float
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.stats.uops / self.cycles if self.cycles else 0.0

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency

    def speedup_over(self, other: "SimResult") -> float:
        """Wall-clock speedup of this run relative to another."""
        return other.seconds / self.seconds


class _WidthLimiter:
    """Allocates at most ``width`` slots per cycle, monotonically."""

    def __init__(self, width: int) -> None:
        self.width = width
        self._cycle = 0
        self._used = 0

    def allocate(self, earliest: int) -> int:
        """Return the first cycle >= earliest with a free slot."""
        if earliest > self._cycle:
            self._cycle = earliest
            self._used = 0
        if self._used >= self.width:
            self._cycle += 1
            self._used = 0
        self._used += 1
        return self._cycle


class _PerCycleBandwidth:
    """Out-of-order bandwidth limiter: at most ``width`` events per cycle,
    with no ordering constraint between allocations (unlike the in-order
    :class:`_WidthLimiter`, which models pipeline stages that handle ops
    in program order).  The issue stage must use this one — a monotonic
    limiter would silently serialise issue and destroy memory-level
    parallelism."""

    def __init__(self, width: int) -> None:
        self.width = width
        self._used: Dict[int, int] = {}

    def allocate(self, earliest: int) -> int:
        cycle = earliest
        used = self._used
        while used.get(cycle, 0) >= self.width:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle

    def prune(self, watermark: int) -> None:
        """Forget occupancy below ``watermark``.  Callers only ever probe
        cycles >= their ``earliest``, and every future ``earliest`` is at
        least the (monotonic) rename cycle — so entries below it are dead
        weight on long traces."""
        used = self._used
        for cycle in [c for c in used if c < watermark]:
            del used[cycle]

    @property
    def tracked_cycles(self) -> int:
        """Number of cycle entries currently held (bench introspection)."""
        return len(self._used)


class _FuPool:
    """A pool of identical units with out-of-order, per-cycle occupancy.

    Pipelined units (busy = 1) accept one new op per unit per cycle;
    blocking units (the divides) occupy a unit for their full latency.
    """

    def __init__(self, count: int) -> None:
        self._count = count
        self._used: Dict[int, int] = {}

    def reserve(self, earliest: int, busy: int) -> int:
        """First cycle >= earliest where a unit can accept the op."""
        cycle = earliest
        used = self._used
        count = self._count
        used_get = used.get
        if busy == 1:  # pipelined units: the common, cheap case
            while used_get(cycle, 0) >= count:
                cycle += 1
            used[cycle] = used_get(cycle, 0) + 1
            return cycle
        while True:
            if all(used_get(cycle + k, 0) < count for k in range(busy)):
                for k in range(busy):
                    used[cycle + k] = used_get(cycle + k, 0) + 1
                return cycle
            cycle += 1

    def prune(self, watermark: int) -> None:
        """Forget occupancy below ``watermark`` (see
        :meth:`_PerCycleBandwidth.prune`)."""
        used = self._used
        for cycle in [c for c in used if c < watermark]:
            del used[cycle]

    @property
    def tracked_cycles(self) -> int:
        """Number of cycle entries currently held (bench introspection)."""
        return len(self._used)


class OutOfOrderCore:
    """One core: OOO engine + predictor + cache hierarchy."""

    def __init__(
        self,
        config: CoreConfig,
        core_id: int = 0,
        coherence: Optional[CoherenceDirectory] = None,
        noc_penalty: int = 0,
    ) -> None:
        self.config = config
        self.core_id = core_id
        self.predictor = TournamentPredictor()
        self.caches = CacheHierarchy(config, core_id, coherence)
        self.noc_penalty = noc_penalty

    def warmup(self, ops) -> None:
        """Prime the caches and the branch predictor with a fast-forward
        replay of the trace's warmup prefix.

        Short synthetic traces would otherwise be dominated by cold-start
        misses and untrained predictor tables; real evaluations (and the
        paper's Multi2Sim runs) measure steady-state regions after a
        fast-forward phase.  No clocks advance here.
        """
        for i, uop in enumerate(ops):
            if i % FETCH_BLOCK_UOPS == 0:
                self.caches.fetch(uop.pc if uop.pc else i * 4)
            if uop.op in (OpClass.LOAD, OpClass.STORE):
                self.caches.data_access(
                    uop.address,
                    is_store=uop.op is OpClass.STORE,
                    noc_penalty=self.noc_penalty,
                )
            elif uop.op is OpClass.BRANCH:
                self.predictor.predict_and_train(uop.pc, uop.taken)
        # Warmup trains the predictor but must not pollute the reported
        # accuracy statistics.
        self.predictor.stats.branches = 0
        self.predictor.stats.mispredictions = 0

    def run(self, trace: Trace) -> SimResult:
        """Simulate a trace; fast-forwards its warmup prefix, then times
        the measured region.  Returns timing plus activity stats."""
        cfg = self.config
        data, code = trace.resident_data, trace.resident_code
        if len(data) or len(code):
            self.caches.preload(data, code)
        if trace.warmup_ops:
            self.warmup(trace.ops[: trace.warmup_ops])
        ops = trace.ops[trace.warmup_ops :]
        stats = SimStats()
        n = len(ops)
        completion: List[int] = [0] * n
        issue_at: List[int] = [0] * n
        commit_at: List[int] = [0] * n

        fetch_slots = _WidthLimiter(cfg.dispatch_width * 2)
        rename_slots = _WidthLimiter(cfg.dispatch_width)
        issue_slots = _PerCycleBandwidth(cfg.issue_width)
        commit_slots = _WidthLimiter(cfg.commit_width)
        pools = {klass: _FuPool(count) for klass, count in FU_POOLS.items()}

        redirect_free = 0  # front end stalled until this cycle (mispredicts)
        fetch_block_ready = 0  # current fetch block available at this cycle
        last_fp_div_issue = -FP_DIV_ISSUE_INTERVAL
        load_extra = cfg.load_to_use_cycles - 4  # 0 in 2D, -1 in 3D designs
        refill = max(1, cfg.branch_mispredict_cycles - FRONT_END_DEPTH)

        # In-flight loads/stores by uop index: entry [0] is the op whose
        # commit frees the queue slot the incoming op needs.
        lq_inflight: deque = deque(maxlen=cfg.lq_entries)
        sq_inflight: deque = deque(maxlen=cfg.sq_entries)

        # Hot-loop locals: attribute/global lookups hoisted out of the
        # per-uop path (the full runner spends most of its time here).
        rob_entries = cfg.rob_entries
        iq_entries = cfg.iq_entries
        lq_entries = cfg.lq_entries
        sq_entries = cfg.sq_entries
        il1_cycles = cfg.il1_cycles
        hetero = cfg.hetero
        noc_penalty = self.noc_penalty
        cache_fetch = self.caches.fetch
        data_access = self.caches.data_access
        predict_and_train = self.predictor.predict_and_train
        fetch_alloc = fetch_slots.allocate
        rename_alloc = rename_slots.allocate
        issue_alloc = issue_slots.allocate
        commit_alloc = commit_slots.allocate
        op_latency = OP_LATENCY
        LOAD = OpClass.LOAD
        STORE = OpClass.STORE
        BRANCH = OpClass.BRANCH
        COMPLEX = OpClass.COMPLEX
        SYNC = OpClass.SYNC
        DIV = OpClass.DIV
        FP_DIV = OpClass.FP_DIV
        FP_ADD = OpClass.FP_ADD
        FP_MUL = OpClass.FP_MUL
        mem_level_counts = stats.mem_level_counts
        sync_commit_cycles = stats.sync_commit_cycles
        loads = stores = branches = mispredictions = 0
        fp_ops = complex_decodes = ifetch_blocks = 0
        prune_at = PRUNE_INTERVAL
        rename = 0
        # Per-stage stall attribution (cycles each constraint pushed a uop
        # past the schedule it would otherwise have had).
        stall_fetch_icache = stall_fetch_redirect = 0
        stall_rename_bw = stall_rob = stall_iq = stall_lq = stall_sq = 0
        stall_decode = stall_operand = stall_fu = stall_issue_bw = 0

        for i, uop in enumerate(ops):
            op = uop.op
            # ---- fetch -----------------------------------------------------
            if i % FETCH_BLOCK_UOPS == 0:
                ifetch_blocks += 1
                access = cache_fetch(uop.pc if uop.pc else i * 4)
                penalty = access.latency - il1_cycles
                base = fetch_block_ready
                if redirect_free > base:
                    stall_fetch_redirect += redirect_free - base
                    base = redirect_free
                if penalty > 0:
                    stall_fetch_icache += penalty
                    fetch_block_ready = base + penalty
                else:
                    fetch_block_ready = base
            fetch = fetch_alloc(
                fetch_block_ready
                if fetch_block_ready >= redirect_free
                else redirect_free
            )

            # ---- rename/dispatch: ROB/IQ/LQ/SQ occupancy ---------------------
            earliest = fetch + FRONT_END_DEPTH
            if i >= rob_entries:
                gate = commit_at[i - rob_entries]
                if gate > earliest:
                    stall_rob += gate - earliest
                    earliest = gate
            if i >= iq_entries:
                gate = issue_at[i - iq_entries]
                if gate > earliest:
                    stall_iq += gate - earliest
                    earliest = gate
            if op is LOAD:
                # Queue-full stall: gated on the commit of the N-th
                # previous *load* (the op whose LQ slot this one takes),
                # not of the uop N positions back in program order.
                if len(lq_inflight) == lq_entries:
                    gate = commit_at[lq_inflight[0]]
                    if gate > earliest:
                        stall_lq += gate - earliest
                        earliest = gate
                lq_inflight.append(i)
            elif op is STORE:
                if len(sq_inflight) == sq_entries:
                    gate = commit_at[sq_inflight[0]]
                    if gate > earliest:
                        stall_sq += gate - earliest
                        earliest = gate
                sq_inflight.append(i)
            elif op is COMPLEX:
                complex_decodes += 1
                if hetero:
                    # Complex decoder lives in the top layer: +1 cycle
                    # (Section 4.1.2); rare, so the IPC cost is small.
                    earliest += 1
                    stall_decode += 1
            rename = rename_alloc(earliest)
            if rename > earliest:
                stall_rename_bw += rename - earliest

            # ---- register readiness ----------------------------------------
            ready = rename + 1
            dist = uop.src1
            if dist is not None and dist <= i:
                produced = completion[i - dist]
                if produced > ready:
                    ready = produced
            dist = uop.src2
            if dist is not None and dist <= i:
                produced = completion[i - dist]
                if produced > ready:
                    ready = produced
            if ready > rename + 1:
                stall_operand += ready - (rename + 1)

            # ---- issue -----------------------------------------------------
            if op is FP_DIV:
                refractory = last_fp_div_issue + FP_DIV_ISSUE_INTERVAL
                if refractory > ready:
                    # Divider issue-interval backpressure is an FU limit.
                    stall_fu += refractory - ready
                    ready = refractory
            latency = op_latency[op]
            # Table 9: adds/multiplies are fully pipelined (issue every
            # cycle); only the divide units block for their full latency.
            busy = latency if (op is DIV or op is FP_DIV) else 1
            start = pools[op].reserve(ready, busy)
            if start > ready:
                stall_fu += start - ready
            issue = issue_alloc(start)
            if issue > start:
                stall_issue_bw += issue - start
            issue_at[i] = issue
            if op is FP_DIV:
                last_fp_div_issue = issue

            # ---- execute ---------------------------------------------------
            done = issue + latency
            if op is LOAD:
                loads += 1
                access = data_access(
                    uop.address, is_store=False, noc_penalty=noc_penalty
                )
                level = access.level
                mem_level_counts[level] = mem_level_counts.get(level, 0) + 1
                done = issue + access.latency + load_extra
            elif op is STORE:
                stores += 1
                data_access(
                    uop.address, is_store=True, noc_penalty=noc_penalty
                )
            elif op is BRANCH:
                branches += 1
                correct = predict_and_train(uop.pc, uop.taken)
                if not correct:
                    mispredictions += 1
                    if done + refill > redirect_free:
                        redirect_free = done + refill
            elif op is FP_ADD or op is FP_MUL:
                fp_ops += 1
            if op is FP_DIV:
                fp_ops += 1
            completion[i] = done

            # ---- commit ----------------------------------------------------
            prev_commit = commit_at[i - 1] if i else 0
            commit_at[i] = commit_alloc(
                done + 1 if done + 1 > prev_commit else prev_commit
            )
            if op is SYNC:
                sync_commit_cycles.append(commit_at[i])

            # ---- bookkeeping: bound the per-cycle occupancy maps -----------
            if i >= prune_at:
                prune_at = i + PRUNE_INTERVAL
                # Every future allocation probes cycles >= rename (rename
                # is monotonic and every later stage starts at ready >=
                # rename + 1), so earlier entries are unreachable.
                issue_slots.prune(rename)
                for pool in pools.values():
                    pool.prune(rename)

        stats.tracked_limiter_cycles = issue_slots.tracked_cycles + sum(
            pool.tracked_cycles for pool in pools.values()
        )
        stats.loads = loads
        stats.stores = stores
        stats.branches = branches
        stats.mispredictions = mispredictions
        stats.fp_ops = fp_ops
        stats.complex_decodes = complex_decodes
        stats.ifetch_blocks = ifetch_blocks
        stats.uops = n
        stats.cycles = commit_at[-1] if n else 0
        stats.stall_cycles = {
            "fetch_icache": stall_fetch_icache,
            "fetch_redirect": stall_fetch_redirect,
            "rename_bw": stall_rename_bw,
            "rob": stall_rob,
            "iq": stall_iq,
            "lq": stall_lq,
            "sq": stall_sq,
            "decode": stall_decode,
            "operand": stall_operand,
            "fu": stall_fu,
            "issue_bw": stall_issue_bw,
        }
        return SimResult(
            config_name=cfg.name,
            trace_name=trace.name,
            cycles=stats.cycles,
            frequency=cfg.frequency,
            stats=stats,
        )


def run_trace(config: CoreConfig, trace: Trace) -> SimResult:
    """Convenience wrapper: simulate ``trace`` on a fresh core (the trace's
    own warmup prefix is fast-forwarded automatically)."""
    return OutOfOrderCore(config).run(trace)
