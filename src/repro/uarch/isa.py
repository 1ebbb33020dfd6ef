"""Micro-op trace format consumed by the simulator.

The simulator is trace-driven (the paper drives Multi2Sim with SPEC2006 /
SPLASH2 / PARSEC binaries; we drive our core model with statistically
faithful synthetic traces).  Each micro-op of a trace carries:

* the operation class (which functional unit and latency it needs),
* register dependencies, expressed as *producer distances* (how many µops
  back each source operand was produced — the standard trace-driven way to
  encode dataflow without register names),
* a memory address for loads/stores (fed to the real cache hierarchy),
* a PC and taken/not-taken outcome for branches (fed to the real
  tournament predictor).

A :class:`Trace` stores these as parallel columns, one read-only NumPy
array per field in the type the compiled kernel reads; :class:`MicroOp` is
the one-record view of a row, built on demand for the scalar oracle and
for hand-written test traces.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from typing import List, Optional, Sequence

import numpy as np


class OpClass(enum.Enum):
    """Functional-unit classes with Table 9 latencies."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    COMPLEX = "complex"  # multi-uop x86 instruction (complex decoder path)
    SYNC = "sync"  # barrier/lock marker in parallel traces


#: Execution latency in cycles per op class (Table 9's FUs & latencies).
OP_LATENCY = {
    OpClass.ALU: 1,
    OpClass.MUL: 2,
    OpClass.DIV: 4,
    OpClass.FP_ADD: 2,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 8,
    OpClass.LOAD: 1,  # plus the cache round trip
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.COMPLEX: 1,
    OpClass.SYNC: 1,
}

#: Functional-unit pools (Table 9): class -> number of units.
FU_POOLS = {
    OpClass.ALU: 4,
    OpClass.MUL: 2,
    OpClass.DIV: 2,
    OpClass.FP_ADD: 2,
    OpClass.FP_MUL: 2,
    OpClass.FP_DIV: 2,
    OpClass.LOAD: 2,  # 2 LSUs
    OpClass.STORE: 2,
    OpClass.BRANCH: 4,  # branches resolve on the ALUs
    OpClass.COMPLEX: 4,
    OpClass.SYNC: 4,
}

#: Issue-rate restriction: FP divide issues every 8 cycles (Table 9).
FP_DIV_ISSUE_INTERVAL = 8

#: Stable integer encoding of :class:`OpClass` (a trace's ``codes`` column).
OP_ORDER = tuple(OpClass)
OP_CODE = {op: index for index, op in enumerate(OP_ORDER)}
_MEMORY_CODES = (OP_CODE[OpClass.LOAD], OP_CODE[OpClass.STORE])


@dataclasses.dataclass(frozen=True)
class MicroOp:
    """One micro-operation in a trace."""

    op: OpClass
    #: Producer distances for up to two source operands (1 = the previous
    #: µop produced it).  ``None`` means the operand is ready (register
    #: value older than the window).
    src1: Optional[int] = None
    src2: Optional[int] = None
    #: Memory address (loads/stores).
    address: Optional[int] = None
    #: Branch PC and resolved direction (branches).
    pc: int = 0
    taken: bool = False
    #: Barrier id for SYNC ops in parallel traces.
    barrier: int = -1

    def __post_init__(self) -> None:
        if self.op in (OpClass.LOAD, OpClass.STORE) and self.address is None:
            raise ValueError(f"{self.op} requires an address")
        for dist in (self.src1, self.src2):
            if dist is not None and dist < 1:
                raise ValueError("producer distance must be >= 1")


#: A trace's column names, in :class:`MicroOp` field order, and each
#: column's NumPy type: the types the compiled kernel reads (``taken``
#: through ``.view(np.uint8)``).
COLUMNS = ("codes", "src1", "src2", "address", "pc", "taken", "barrier")
_COLUMN_TYPES = (np.int8, np.int32, np.int32, np.int64, np.int64, np.bool_,
                 np.int32)

#: The bound on addresses, pcs and resident lines.  The compiled replay
#: takes a line's tag and set with shifts and masks, which equal Python's
#: ``//`` and ``%`` only for values that are not negative (so a negative
#: one would land in a plausible wrong set), and its prefetcher's read
#: ahead of one from here up could overflow ``int64``.
_MAX_ADDRESS = 2 ** 62

#: Default warmup length as a fraction of a trace's measured ops; the
#: generator and :meth:`Trace.prefix` must agree on it.
WARMUP_FRAC = 0.5


def _columns_of(ops: Sequence[MicroOp]) -> List[list]:
    """Column lists of ``ops``; a missing producer or address is ``0``
    (distances are >= 1, so ``0`` is never a real distance)."""
    return [
        [OP_CODE[op.op] for op in ops],
        [op.src1 or 0 for op in ops],
        [op.src2 or 0 for op in ops],
        [op.address or 0 for op in ops],
        [op.pc for op in ops],
        [op.taken for op in ops],
        [op.barrier for op in ops],
    ]


def _frozen(name: str, what: str, values, dtype) -> np.ndarray:
    """``values`` as a read-only contiguous ``dtype`` array, copied only
    if it is not one; a value or array type ``dtype`` cannot hold raises."""
    if isinstance(values, np.ndarray) and not np.can_cast(values.dtype, dtype):
        raise ValueError(f"trace {name!r} has a {what} column of {values.dtype}")
    try:
        array = np.ascontiguousarray(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"trace {name!r} has a {what} value outside "
                         f"{np.dtype(dtype)}") from None
    array.flags.writeable = False
    return array


def _frozen_segments(name: str, segments) -> np.ndarray:
    """``segments`` as a read-only ``(k, 3)`` ``int64`` array, refusing a
    row the compiled replay cannot index: a negative start, step or
    count, or a last line from :data:`_MAX_ADDRESS` up (computed in
    Python ints, so it cannot wrap)."""
    array = _frozen(name, "resident segment", segments, np.int64)
    if not array.size:  # ``[]`` has no row shape to check
        array = array.reshape(0, 3)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError(f"trace {name!r} has resident segments that are "
                         f"not (start, step, count) rows")
    for start, step, count in array.tolist():
        for part, value in (("start", start), ("step", step),
                            ("count", count)):
            if value < 0:
                raise ValueError(f"trace {name!r} has a resident line "
                                 f"segment with a negative {part}")
        if count and start + step * (count - 1) >= _MAX_ADDRESS:
            raise ValueError(f"trace {name!r} has a resident line segment "
                             f"whose last line reaches 2**62")
    return array


def _expand(segments: np.ndarray) -> np.ndarray:
    """The lines of ``segments``' ``(start, step, count)`` rows, in row
    order: the ``int64`` line array they stand for."""
    starts, steps, counts = segments.T
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
    return np.repeat(starts, counts) + np.repeat(steps, counts) * offsets


class Trace:
    """A finished instruction trace plus its identity, stored as columns.

    ``codes`` (:data:`OP_CODE` of each op), ``src1``/``src2`` (producer
    distances, ``0`` = ready), ``address`` (``0`` = none), ``pc``,
    ``taken`` and ``barrier`` hold one entry per micro-op, as read-only
    NumPy arrays of the types the compiled kernel reads: the kernel, the
    oracle and prefixes all read them in place.  ``Trace(name,
    ops=[...])`` derives them from hand-built :class:`MicroOp` records;
    the generator passes ``columns=`` directly and never builds a
    :class:`MicroOp`.

    ``warmup_ops`` marks a fast-forward prefix: the simulator replays it
    through the caches and predictor untimed, then measures the rest —
    the standard steady-state methodology for sampled simulation.

    The checkpoint-style warm state, the line addresses resident in the
    data / instruction hierarchy at the start of the measured region,
    is stored only as ``data_segments`` / ``code_segments``: read-only
    ``(k, 3)`` ``int64`` arrays of ``(start, step, count)`` rows, each
    the arithmetic run ``start, start + step, ...`` of ``count`` lines,
    oldest row first, passed as ``segments=(data, code)`` (default: no
    warm state).  The generator builds its resident lines as such runs;
    a single line is the row ``(line, 0, 1)``.  :attr:`resident_data` and
    :attr:`resident_code` expand the rows into line arrays on every
    read and are never stored: only the scalar oracle's
    :meth:`~repro.uarch.cache.CacheHierarchy.preload`,
    :func:`~repro.golden.serialize.trace_digest` and tests read them.
    The compiled replay walks the rows themselves.

    Building a trace checks, once, what the compiled kernel would get
    wrong, and raises a :class:`ValueError` naming the trace: columns of
    different lengths, a warmup outside the trace, an unknown op code, a
    value outside its column's type, a negative address or pc or one
    from :data:`_MAX_ADDRESS` up, or a resident segment with a negative
    start, step or count or whose last line reaches :data:`_MAX_ADDRESS`.
    """

    def __init__(self, name: str, ops: Optional[Sequence[MicroOp]] = None,
                 warmup_ops: int = 0, *,
                 columns: Optional[Sequence[Sequence]] = None,
                 segments: Sequence = ((), ())) -> None:
        if (ops is None) == (columns is None):
            raise TypeError("Trace needs exactly one of ops= or columns=")
        self.name = name
        self.warmup_ops = warmup_ops
        self._ops: Optional[List[MicroOp]] = None
        if ops is not None:
            self._ops = list(ops)
            columns = _columns_of(self._ops)
        (self.codes, self.src1, self.src2, self.address, self.pc,
         self.taken, self.barrier) = (
            _frozen(name, what, values, dtype)
            for what, values, dtype in zip(COLUMNS, columns, _COLUMN_TYPES))
        self.data_segments, self.code_segments = (
            _frozen_segments(name, rows) for rows in segments)
        rows = len(self.codes)
        if any(len(column) != rows for column in self.columns):
            raise ValueError(f"trace {name!r} has columns of different lengths")
        if not 0 <= warmup_ops <= rows:
            raise ValueError(f"trace {name!r} has a warmup outside its length")
        if rows and (self.codes.min() < 0
                     or self.codes.max() >= len(OP_ORDER)):
            raise ValueError(f"trace {name!r} has an unknown op code")
        for what, values in (("pc", self.pc), ("address", self.address)):
            if len(values) and (values.min() < 0
                                or values.max() >= _MAX_ADDRESS):
                raise ValueError(f"trace {name!r} has a negative or "
                                 f"out-of-range {what}")

    @property
    def columns(self) -> tuple:
        """The seven columns, in :data:`COLUMNS` order."""
        return (self.codes, self.src1, self.src2, self.address, self.pc,
                self.taken, self.barrier)

    @property
    def resident_data(self) -> np.ndarray:
        """The resident data lines, expanded from :attr:`data_segments`."""
        return _expand(self.data_segments)

    @property
    def resident_code(self) -> np.ndarray:
        """The resident code lines, expanded from :attr:`code_segments`."""
        return _expand(self.code_segments)

    @property
    def ops(self) -> List[MicroOp]:
        """The trace as :class:`MicroOp` records of plain Python values,
        built on first use.

        Only the scalar oracle, :func:`~repro.golden.serialize.trace_digest`
        and tests read it; the batched kernel reads the columns.
        """
        if self._ops is None:
            memory = _MEMORY_CODES
            self._ops = [
                MicroOp(
                    op=OP_ORDER[code],
                    src1=src1 or None,
                    src2=src2 or None,
                    address=address if address or code in memory else None,
                    pc=pc,
                    taken=taken,
                    barrier=barrier,
                )
                for code, src1, src2, address, pc, taken, barrier
                in zip(*(column.tolist() for column in self.columns))
            ]
        return self._ops

    def prefix(self, num_uops: int) -> "Trace":
        """The first ``num_uops`` measured ops behind a
        ``int(num_uops * WARMUP_FRAC)`` warmup, as a new trace that views
        this one's arrays.

        For one ``(profile, seed, thread)`` the generator's draws do not
        depend on the requested length, so this equals
        ``generate_trace(profile, num_uops, ...)`` for any trace generated
        at least that long with the default warmup fraction.  It shares
        this trace's segment arrays.
        """
        warmup = int(num_uops * WARMUP_FRAC)
        rows = num_uops + warmup
        if num_uops < 1 or rows > len(self.codes):
            raise ValueError(
                f"prefix of {rows} rows out of range for a "
                f"{len(self.codes)}-row trace"
            )
        return Trace(self.name, warmup_ops=warmup,
                     segments=(self.data_segments, self.code_segments),
                     columns=[column[:rows] for column in self.columns])

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            (self.name, self.warmup_ops) == (other.name, other.warmup_ops)
            and all(np.array_equal(mine, theirs) for mine, theirs in zip(
                (*self.columns, self.resident_data, self.resident_code),
                (*other.columns, other.resident_data, other.resident_code),
            ))
        )

    def op_mix(self) -> dict:
        """Fraction of each op class in the trace (for sanity checks)."""
        total = max(1, len(self.codes))
        return {OP_ORDER[code]: count / total
                for code, count in Counter(self.codes.tolist()).items()}
