"""Deterministic synthetic trace generation from application profiles.

Given an :class:`~repro.workloads.profiles.AppProfile` and a seed, the
generator emits a :class:`~repro.uarch.isa.Trace` whose instruction mix,
dependence structure, address stream and branch stream follow the profile.
Addresses and branches are *raw material*: the simulator's caches and
predictor decide what hits and what mispredicts.

Generation is fully deterministic per ``(profile, seed, thread)`` so that
benchmark runs are reproducible.
"""

from __future__ import annotations

import itertools
import random
import zlib

import numpy as np

from repro.lru import LruMemo
from repro.uarch import kernel
from repro.uarch.isa import (
    _COLUMN_TYPES,
    _MAX_ADDRESS,
    OP_CODE,
    WARMUP_FRAC,
    OpClass,
    Trace,
)
from repro.workloads.profiles import AppProfile

#: Base of the shared region used by parallel traces.
SHARED_REGION_BASE = 1 << 40

_ALU = OP_CODE[OpClass.ALU]
_LOAD = OP_CODE[OpClass.LOAD]
_STORE = OP_CODE[OpClass.STORE]
_BRANCH = OP_CODE[OpClass.BRANCH]
_SYNC = OP_CODE[OpClass.SYNC]
_FP_ADD = OP_CODE[OpClass.FP_ADD]
_FP_MUL = OP_CODE[OpClass.FP_MUL]
_FP_DIV = OP_CODE[OpClass.FP_DIV]
#: The op code of each op-mix cut point, in draw order; -1 (FP) is refined
#: into an add, multiply or divide by a second draw.
_CUT_CODES = np.array([
    _LOAD, _STORE, _BRANCH, -1, OP_CODE[OpClass.MUL], OP_CODE[OpClass.DIV],
    OP_CODE[OpClass.COMPLEX],
], dtype=np.int8)


class TraceGenerator:
    """Synthesises micro-op traces from a profile."""

    def __init__(self, profile: AppProfile, seed: int = 1234,
                 thread: int = 0) -> None:
        self.profile = profile
        # zlib.crc32 (not hash()) keeps traces identical across processes:
        # Python salts str hashes per interpreter run.
        name_key = zlib.crc32(profile.name.encode())
        self._rng = random.Random((seed * 1000003) ^ (thread * 7919) ^ name_key)
        self._thread = thread
        # Per-thread private region offset keeps address streams disjoint.
        self._private_base = (thread + 1) * (1 << 34)
        self._stream_ptr = self._private_base
        # Random accesses draw from a fixed pool of lines covering the
        # working set: applications *reuse* their working set, they do not
        # touch fresh memory forever.  Whether the pool fits in L1/L2/L3
        # (and therefore where these accesses hit) is decided by the
        # simulator's cache hierarchy, not here.
        line = 64
        pool_lines = max(4, min(profile.working_set_bytes // line, 1 << 20))
        self._pool_lines = pool_lines
        self._pool_stride = max(line, profile.working_set_bytes // pool_lines)
        # Static branch sites with per-site bias.
        pcs = []
        biases = []
        for b in range(profile.static_branches):
            pc = (self._rng.randrange(profile.code_bytes) & ~3) + 4096
            easy = self._rng.random() < profile.easy_branch_frac
            bias = 0.97 if easy else profile.hard_branch_bias
            # Half the biased branches prefer not-taken.
            if self._rng.random() < 0.5:
                bias = 1.0 - bias
            pcs.append(pc)
            biases.append(bias)
        self._branch_pcs = np.array(pcs, dtype=np.int64)
        self._branch_bias = np.array(biases, dtype=np.float64)
        self._code_ptr = 4096

    def generate(self, num_uops: int,
                 warmup_frac: float = WARMUP_FRAC) -> Trace:
        """Emit a trace of ``num_uops`` *measured* micro-ops plus a
        fast-forward warmup prefix of ``warmup_frac * num_uops`` ops
        (barrier markers included for parallel profiles).

        The row loop is compiled (``generate_trace`` in ``timing.c``) and
        writes the trace's columns directly, continuing this generator's
        ``random.Random`` state draw for draw.  Per op it draws, in
        order: the op class (plus an FP refinement), the next
        instruction-block address (mostly sequential), then for a branch
        its static site and direction, then up to two producer distances
        and, for a load/store, a data address (hot set, stream, shared or
        working-set pool).  Nothing drawn depends on the requested
        length, so a shorter trace is a prefix of a longer one
        (:meth:`Trace.prefix`).
        """
        if num_uops < 1:
            raise ValueError("trace length must be positive")
        warmup_ops = int(num_uops * warmup_frac)
        total = num_uops + warmup_ops
        profile = self.profile
        rng = self._rng
        parallel = profile.is_parallel
        # Imbalance: threads do slightly different amounts of work between
        # barriers; thread 0 is the reference.
        skew = 1.0 + profile.imbalance * (
            rng.random() - 0.5
        ) * 2.0 if parallel and self._thread else 1.0
        # Barriers at row ``barrier_period``, then every ``gap`` rows; a
        # row count past the trace's end means none (so both fit int64).
        first_barrier = gap = total
        if parallel:
            first_barrier = min(profile.barrier_period, total)
            gap = min(max(100, int(profile.barrier_period * skew)), total)

        # Op-class thresholds, accumulated in _CUT_CODES order.
        cuts = np.array(list(itertools.accumulate((
            profile.load_frac, profile.store_frac, profile.branch_frac,
            profile.fp_frac, profile.mul_frac, profile.div_frac,
            profile.complex_frac,
        ))))
        dep_lambda = 1.0 / profile.dep_distance_mean
        sharing_frac = profile.sharing_frac
        hot_cut = sharing_frac + profile.hot_frac * (1 - sharing_frac)
        shared_span = max(64, profile.working_set_bytes // 8)
        private_base = self._private_base
        self._check_range(total, dep_lambda)

        version, words, gauss_next = rng.getstate()
        state = np.array(words, dtype=np.uint32)
        pointers = np.array([self._code_ptr, self._stream_ptr],
                            dtype=np.int64)
        columns = [np.empty(total, dtype) for dtype in _COLUMN_TYPES]
        codes, src1, src2, address, pc, taken, barrier = columns
        status = kernel._library(kernel._BUILD_DIR).generate_trace(
            total, state, pointers,
            len(cuts), cuts, _CUT_CODES,
            _ALU, _SYNC, _LOAD, _STORE, _BRANCH, _FP_ADD, _FP_MUL, _FP_DIV,
            first_barrier, gap, profile.code_bytes,
            len(self._branch_pcs), self._branch_pcs, self._branch_bias,
            profile.serial_frac, dep_lambda,
            # A serial profile never draws from the shared region.
            sharing_frac if parallel else 0.0, hot_cut, profile.stream_frac,
            private_base, profile.hot_set_bytes,
            private_base + profile.working_set_bytes, profile.stride_bytes,
            self._pool_lines, self._pool_stride,
            SHARED_REGION_BASE, shared_span,
            codes, src1, src2, address, pc, taken.view(np.uint8), barrier,
        )
        rng.setstate((version, tuple(state.tolist()), gauss_next))
        kernel._check(status)
        self._code_ptr, self._stream_ptr = pointers.tolist()
        return Trace(
            name=profile.name,
            warmup_ops=warmup_ops,
            segments=(self._data_segments(), self._code_segments()),
            columns=columns,
        )

    def _check_range(self, total: int, dep_lambda: float) -> None:
        """Refuse, before the compiled loop runs, what its ``int32`` rows
        and ``int64`` arithmetic could not hold (ctypes would wrap a
        Python int past ``int64`` silently): ``2**31`` rows or more, a
        dependence rate that is not positive (its distances would not
        be), a negative size, or a pc or private-region address that
        could leave ``[0, 2**62)``, the range a :class:`Trace` accepts.
        The shared region, 1 TiB up plus an eighth of the working set,
        stays below that bound whenever the private region does."""
        profile = self.profile
        if total >= 2 ** 31:
            raise ValueError(f"{profile.name}: {total} rows do not fit int32")
        if not dep_lambda > 0:
            raise ValueError(
                f"{profile.name}: dep_distance_mean must be positive")
        sizes = (profile.code_bytes, profile.hot_set_bytes,
                 profile.working_set_bytes, profile.stride_bytes)
        if min(sizes) < 0:
            raise ValueError(f"{profile.name}: code, hot-set, working-set "
                             f"and stride sizes must not be negative")
        base = self._private_base
        top = base + max(profile.working_set_bytes + profile.stride_bytes,
                         profile.hot_set_bytes,
                         self._pool_lines * self._pool_stride)
        if (base < 0 or top >= _MAX_ADDRESS
                or 4096 + profile.code_bytes + 32 >= _MAX_ADDRESS):
            raise ValueError(
                f"{profile.name}: thread {self._thread}'s addresses could "
                f"leave [0, 2**62)")

    def _data_segments(self) -> np.ndarray:
        """Checkpoint-warm data lines as ``(start, step, count)`` rows,
        oldest first: the hot set, the working-set pool (capped — for
        huge working sets only a steady-state LRU residue would survive
        anyway) and, for a parallel profile that shares, the shared
        region."""
        profile = self.profile
        base = self._private_base
        pool_step = max(1, self._pool_lines // 40000)
        rows = [
            # The hot set's lines are 4 KiB (64 lines) apart, not 64 bytes:
            # its line index is scaled by 64 twice, so most of these lines
            # lie past the hot set.  The goldens, the pinned trace digests
            # and perfbench's explore frontier digest pin this step.
            (base, 64 * 64, len(range(0, profile.hot_set_bytes, 64))),
            (base, pool_step * self._pool_stride,
             len(range(0, self._pool_lines, pool_step))),
        ]
        if profile.is_parallel and profile.sharing_frac > 0:
            shared_span = max(64, profile.working_set_bytes // 8)
            shared_step = max(64, shared_span // 8192)
            rows.append((SHARED_REGION_BASE, shared_step,
                         len(range(0, shared_span, shared_step))))
        return np.array(rows, dtype=np.int64)

    def _code_segments(self) -> np.ndarray:
        """Checkpoint-warm instruction lines covering the code footprint,
        as one ``(start, step, count)`` row."""
        return np.array([(4096, 32, len(range(0, self.profile.code_bytes,
                                              32)))], dtype=np.int64)


def generate_trace(profile: AppProfile, num_uops: int, seed: int = 1234,
                   thread: int = 0,
                   warmup_frac: float = WARMUP_FRAC) -> Trace:
    """One-call convenience wrapper around :class:`TraceGenerator`."""
    return TraceGenerator(profile, seed=seed, thread=thread).generate(
        num_uops, warmup_frac=warmup_frac
    )


#: The longest trace generated so far per (profile, seed, thread).  The
#: generator's draws do not depend on the requested length, so a shorter
#: trace is a prefix of it (:meth:`Trace.prefix`): an 8-core split's
#: threads 0-3 come from the 4-core split's traces.  Entries are never
#: handed to the kernel, so they hold columns only.
_STREAMS = LruMemo(cap=32)

#: One prefix trace per (profile, uops, seed, thread): every config
#: sweeping an app, and every tile list with the same work split, shares
#: it, and with it the kernel's decode and replay memos, which live on
#: the trace.
_TRACES = LruMemo(cap=64)


def memoized_trace(profile: AppProfile, num_uops: int, seed: int = 1234,
                   thread: int = 0) -> Trace:
    """:func:`generate_trace` at the default warmup, memoized per process.

    A trace is generated only when no stream of the same (profile, seed,
    thread) is at least ``num_uops`` long; otherwise it is that stream's
    prefix.  Keys hold ``repr(profile)``, which shows every field, so a
    profile rebuilt with ``dataclasses.replace`` under the same name
    never shares a trace.
    """
    key = (repr(profile), num_uops, seed, thread)
    stream_key = (key[0], seed, thread)

    def build():
        stream = _STREAMS.peek(stream_key)
        if stream is None or len(stream) - stream.warmup_ops < num_uops:
            stream = generate_trace(profile, num_uops, seed=seed,
                                    thread=thread)
            _STREAMS.put(stream_key, stream)
        return stream.prefix(num_uops)

    return _TRACES.get(key, build)
