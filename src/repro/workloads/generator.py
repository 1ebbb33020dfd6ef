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

import random
import zlib
from typing import List

from repro.uarch.isa import OP_CODE, WARMUP_FRAC, OpClass, Trace
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
        self._branch_pcs: List[int] = []
        self._branch_bias: List[float] = []
        for b in range(profile.static_branches):
            pc = (self._rng.randrange(profile.code_bytes) & ~3) + 4096
            easy = self._rng.random() < profile.easy_branch_frac
            bias = 0.97 if easy else profile.hard_branch_bias
            # Half the biased branches prefer not-taken.
            if self._rng.random() < 0.5:
                bias = 1.0 - bias
            self._branch_pcs.append(pc)
            self._branch_bias.append(bias)
        self._code_ptr = 4096

    def generate(self, num_uops: int,
                 warmup_frac: float = WARMUP_FRAC) -> Trace:
        """Emit a trace of ``num_uops`` *measured* micro-ops plus a
        fast-forward warmup prefix of ``warmup_frac * num_uops`` ops
        (barrier markers included for parallel profiles).

        One loop writes the trace's columns directly.  Per op it draws,
        in order: the op class (plus an FP refinement), the next
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
        random = rng.random
        randrange = rng.randrange
        expovariate = rng.expovariate
        parallel = profile.is_parallel
        barrier_period = profile.barrier_period
        barrier_id = 0
        next_barrier = barrier_period or 0
        # Imbalance: threads do slightly different amounts of work between
        # barriers; thread 0 is the reference.
        skew = 1.0 + profile.imbalance * (
            random() - 0.5
        ) * 2.0 if parallel and self._thread else 1.0

        # Op-class thresholds, accumulated in draw order; FP (code -1) is
        # refined into add/mul/div by a second draw.
        cuts = []
        acc = 0.0
        for frac, code in (
            (profile.load_frac, _LOAD),
            (profile.store_frac, _STORE),
            (profile.branch_frac, _BRANCH),
            (profile.fp_frac, -1),
            (profile.mul_frac, OP_CODE[OpClass.MUL]),
            (profile.div_frac, OP_CODE[OpClass.DIV]),
            (profile.complex_frac, OP_CODE[OpClass.COMPLEX]),
        ):
            acc += frac
            cuts.append((acc, code))
        code_bytes = profile.code_bytes
        code_end = 4096 + code_bytes
        code_ptr = self._code_ptr
        serial_frac = profile.serial_frac
        dep_lambda = 1.0 / profile.dep_distance_mean
        sharing_frac = profile.sharing_frac
        hot_cut = sharing_frac + profile.hot_frac * (1 - sharing_frac)
        shared_span = max(64, profile.working_set_bytes // 8)
        hot_set_bytes = profile.hot_set_bytes
        stream_frac = profile.stream_frac
        stride = profile.stride_bytes
        private_base = self._private_base
        stream_end = private_base + profile.working_set_bytes
        stream_ptr = self._stream_ptr
        pool_lines = self._pool_lines
        pool_stride = self._pool_stride
        branch_pcs = self._branch_pcs
        branch_bias = self._branch_bias
        sites = len(branch_pcs)

        # Preallocated columns hold each field's default (ALU, ready
        # operands, no address, pc 0, not taken, no barrier); the loop
        # stores only what differs.
        codes = [_ALU] * total
        src1 = [0] * total
        src2 = [0] * total
        address = [0] * total
        pc = [0] * total
        taken = [False] * total
        barrier = [-1] * total
        index = 0
        while index < total:
            if parallel and next_barrier and index >= next_barrier:
                codes[index] = _SYNC
                barrier[index] = barrier_id
                barrier_id += 1
                next_barrier = index + max(100, int(barrier_period * skew))
                index += 1
                continue
            roll = random()
            for cut, code in cuts:
                if roll < cut:
                    break
            else:
                code = _ALU
            if code < 0:
                fp_roll = random()
                code = (_FP_ADD if fp_roll < 0.55
                        else _FP_MUL if fp_roll < 0.93 else _FP_DIV)
            codes[index] = code
            if random() < 0.1:
                code_ptr = 4096 + (randrange(code_bytes) & ~31)
            else:
                code_ptr += 32
                if code_ptr >= code_end:
                    code_ptr = 4096
            if code == _BRANCH:
                site = randrange(sites)
                taken[index] = random() < branch_bias[site]
                pc[index] = branch_pcs[site]
            else:
                pc[index] = code_ptr
            # Producer distances: none for the first op or with
            # probability 0.45; otherwise exponential, mostly short for
            # serial code, clamped to the trace start.
            if index and random() <= 0.55:
                if random() < serial_frac:
                    dist = 1 + int(expovariate(0.5))
                else:
                    dist = 1 + int(expovariate(dep_lambda))
                src1[index] = dist if dist < index else index
            if code == _LOAD or code == _STORE:
                roll = random()
                if parallel and roll < sharing_frac:
                    # Shared region: all threads touch the same lines.
                    address[index] = SHARED_REGION_BASE + randrange(shared_span)
                elif roll < hot_cut:
                    address[index] = private_base + randrange(hot_set_bytes)
                elif random() < stream_frac:
                    stream_ptr += stride
                    if stream_ptr >= stream_end:
                        stream_ptr = private_base
                    address[index] = stream_ptr
                else:
                    address[index] = (private_base
                                      + randrange(pool_lines) * pool_stride)
            elif code != _BRANCH and index and random() <= 0.55:
                if random() < serial_frac:
                    dist = 1 + int(expovariate(0.5))
                else:
                    dist = 1 + int(expovariate(dep_lambda))
                src2[index] = dist if dist < index else index
            index += 1
        self._code_ptr = code_ptr
        self._stream_ptr = stream_ptr
        return Trace(
            name=profile.name,
            warmup_ops=warmup_ops,
            resident_data=self._resident_data(),
            resident_code=self._resident_code(),
            columns=[codes, src1, src2, address, pc, taken, barrier],
        )

    def _resident_data(self) -> List[int]:
        """Checkpoint-warm data lines: the hot set plus the working-set
        pool (capped — for huge working sets only a steady-state LRU
        residue would survive anyway)."""
        profile = self.profile
        lines = [
            self._private_base + i * 64
            for i in range(0, profile.hot_set_bytes, 64)
        ]
        cap = 40000
        step = max(1, self._pool_lines // cap)
        lines.extend(
            [self._private_base + i * self._pool_stride
             for i in range(0, self._pool_lines, step)]
        )
        if profile.is_parallel and profile.sharing_frac > 0:
            shared_span = max(64, profile.working_set_bytes // 8)
            shared_step = max(64, shared_span // 8192)
            lines.extend(
                [SHARED_REGION_BASE + i
                 for i in range(0, shared_span, shared_step)]
            )
        return lines

    def _resident_code(self) -> List[int]:
        """Checkpoint-warm instruction lines covering the code footprint."""
        return [4096 + i for i in range(0, self.profile.code_bytes, 32)]


def generate_trace(profile: AppProfile, num_uops: int, seed: int = 1234,
                   thread: int = 0,
                   warmup_frac: float = WARMUP_FRAC) -> Trace:
    """One-call convenience wrapper around :class:`TraceGenerator`."""
    return TraceGenerator(profile, seed=seed, thread=thread).generate(
        num_uops, warmup_frac=warmup_frac
    )
