"""Shared-memory replay images for ProcessPool workers.

A cold parallel sweep pays its biggest tax re-deriving per-trace state
in every worker: each ``ProcessPoolExecutor`` work unit regenerates the
trace, decodes it into :class:`~repro.uarch.kernel.TraceArrays`, replays
the branch predictor, and replays the cache hierarchy per L2 geometry —
all pure functions of the trace that the parent has usually already
computed.  This module moves those replay products into one
``multiprocessing.shared_memory`` block per trace group so workers
*attach* (zero-copy NumPy views over the block) instead of re-deriving
or re-pickling them per work unit.

Lifecycle contract (the guarded part):

* the engine publishes once per sweep group (:func:`publish_group`),
* work units carry only the picklable :class:`GroupHandle` (a block
  name plus array layout and scalar metadata — a few hundred bytes),
* workers attach (:func:`attach_group`), compute, and ``close()``,
* the publisher unlinks in a ``finally`` (:meth:`PublishedGroup.unlink`),
* every step degrades gracefully: if shared memory is unavailable,
  publishing fails, or a worker cannot attach, callers fall back to the
  existing copy path (re-derive in the worker) with identical results.

``$REPRO_KERNEL_SHM=0`` disables the whole path.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - import guard exercised via shm_enabled()
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - CPython always ships it
    _shared_memory = None

from repro.core.configs import CoreConfig
from repro.uarch import kernel

#: Byte alignment of each array inside the block (64 keeps every view
#: cache-line aligned, which NumPy likes).
_ALIGN = 64

#: Spellings of ``$REPRO_KERNEL_SHM`` that disable the path.
_OFF = ("0", "false", "off", "no")

#: Block names this process created (and therefore owns in the resource
#: tracker).  Attaching to one's own block must NOT unregister it, or
#: the later ``unlink()`` double-unregisters and the tracker complains.
_OWNED: set = set()


def shm_enabled() -> bool:
    """Shared-memory publication is available and not disabled."""
    if _shared_memory is None:
        return False
    return os.environ.get("REPRO_KERNEL_SHM", "").strip().lower() not in _OFF


# ---------------------------------------------------------------------------
# Generic block packing: a named bundle of NumPy arrays in one segment
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BlockHandle:
    """Picklable descriptor of one shared block: name + array layout."""

    name: str
    size: int
    #: ``(key, offset, shape, dtype-str)`` per packed array.
    layout: Tuple[Tuple[str, int, tuple, str], ...]


def _pack(arrays: Dict[str, np.ndarray]):
    """Copy ``arrays`` into one fresh shared block; returns
    ``(shm, BlockHandle)``.  Raises on any shared-memory failure —
    callers treat that as "use the copy path"."""
    layout: List[Tuple[str, int, tuple, str]] = []
    offset = 0
    prepared: Dict[str, np.ndarray] = {}
    for key, value in arrays.items():
        arr = np.ascontiguousarray(value)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        layout.append((key, offset, tuple(arr.shape), arr.dtype.str))
        prepared[key] = arr
        offset += arr.nbytes
    shm = _shared_memory.SharedMemory(create=True, size=max(1, offset))
    try:
        for key, start, shape, dtype in layout:
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf,
                              offset=start)
            view[...] = prepared[key]
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    _OWNED.add(shm.name)
    return shm, BlockHandle(name=shm.name, size=max(1, offset),
                            layout=tuple(layout))


def _untrack(shm) -> None:
    """Detach ``shm`` from the resource tracker.

    CPython (through 3.12) registers attached segments with the
    resource tracker as if the worker owned them, so worker exit would
    unlink blocks the parent still needs and log spurious leak
    warnings.  Ownership here is strictly the publisher's.
    """
    if shm.name in _OWNED:
        return
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _attach(handle: BlockHandle):
    """Map an existing block; returns ``(shm, {key: array view})``.

    The views alias the segment — callers must keep ``shm`` alive while
    using them and ``close()`` it afterwards.
    """
    shm = _shared_memory.SharedMemory(name=handle.name)
    _untrack(shm)
    views: Dict[str, np.ndarray] = {}
    for key, start, shape, dtype in handle.layout:
        views[key] = np.ndarray(shape, dtype=dtype, buffer=shm.buf,
                                offset=start)
    return shm, views


# ---------------------------------------------------------------------------
# Trace-group publication: decode + predictor + per-geometry cache replay
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GroupHandle:
    """Everything a worker needs to rebuild a trace's replay state.

    ``block`` names the shared arrays; the scalar fields carry the
    decode counters and per-geometry image metadata that are cheaper to
    pickle than to re-derive.
    """

    block: BlockHandle
    trace_name: str
    n: int
    loads: int
    stores: int
    branches: int
    fp_ops: int
    complex_decodes: int
    ifetch_blocks: int
    #: Per published L2 geometry: (shared_l2, any_remote, mem_level_counts).
    images: Tuple[Tuple[bool, bool, tuple], ...]


class PublishedGroup:
    """Publisher-side ownership of one group's shared block."""

    def __init__(self, shm, handle: GroupHandle) -> None:
        self._shm = shm
        self.handle = handle

    def unlink(self) -> None:
        """Release the block (idempotent).  Workers that already
        attached keep their mapping until they ``close()``."""
        shm, self._shm = self._shm, None
        if shm is not None:
            _OWNED.discard(shm.name)
            try:
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - double-unlink races
                pass

    def __enter__(self) -> "PublishedGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


def publish_group(trace, configs: Sequence[CoreConfig]) -> PublishedGroup:
    """Publish ``trace``'s decode, predictor outcomes and the replay
    images for every L2 geometry in ``configs`` into one shared block.

    Raises on any failure (no shared memory, permissions, size limits);
    the caller falls back to the copy path.
    """
    if _shared_memory is None:
        raise RuntimeError("multiprocessing.shared_memory unavailable")
    arrays = kernel.decode(trace)
    corrects = kernel.branch_outcomes(trace)
    geometries: List[bool] = []
    for config in configs:
        if config.shared_l2 not in geometries:
            geometries.append(config.shared_l2)

    packed: Dict[str, np.ndarray] = {
        "codes": np.asarray(arrays.codes, dtype=np.int64),
        "src1": np.asarray(arrays.src1, dtype=np.int64),
        "src2": np.asarray(arrays.src2, dtype=np.int64),
        "lat": np.asarray(arrays.lat, dtype=np.int64),
        "busy": np.asarray(arrays.busy, dtype=np.int64),
        "load_pos": np.asarray(arrays.load_pos, dtype=np.int64),
        "store_pos": np.asarray(arrays.store_pos, dtype=np.int64),
        "sync_pos": np.asarray(arrays.sync_pos, dtype=np.int64),
        "corrects": np.asarray(corrects, dtype=np.uint8),
    }
    image_meta: List[Tuple[bool, bool, tuple]] = []
    for geometry in geometries:
        donor = next(c for c in configs if c.shared_l2 == geometry)
        image = kernel.replay_memory(trace, donor)
        tag = f"img{int(geometry)}"
        packed[f"{tag}_fetch"] = image.fetch_levels
        packed[f"{tag}_load"] = image.load_levels
        packed[f"{tag}_remote"] = image.load_remote
        image_meta.append((
            geometry,
            image.any_remote,
            tuple(sorted(image.mem_level_counts.items())),
        ))

    shm, block = _pack(packed)
    handle = GroupHandle(
        block=block,
        trace_name=trace.name,
        n=arrays.n,
        loads=arrays.loads,
        stores=arrays.stores,
        branches=arrays.branches,
        fp_ops=arrays.fp_ops,
        complex_decodes=arrays.complex_decodes,
        ifetch_blocks=arrays.ifetch_blocks,
        images=tuple(image_meta),
    )
    return PublishedGroup(shm, handle)


class _TraceProxy:
    """Stand-in for a :class:`~repro.workloads.generator.Trace` whose
    kernel memos are pre-populated from a shared block.

    It deliberately has no ``ops``: every kernel entry point consults
    the ``_kernel_state`` memo first, so a memo miss (which would mean
    the proxy is being used outside its contract) fails loudly instead
    of silently recomputing from nothing.
    """

    __slots__ = ("name", "_kernel_state")

    def __init__(self, name: str, state: dict) -> None:
        self.name = name
        self._kernel_state = state


class AttachedGroup:
    """Worker-side view of a published group.

    ``trace`` quacks like the original trace for every kernel entry
    point (``decode``, ``branch_outcomes``, ``replay_memory`` and hence
    ``run_trace_batch``); the backing arrays alias the shared block, so
    keep this object alive while computing and ``close()`` it after.
    """

    def __init__(self, shm, trace: _TraceProxy) -> None:
        self._shm = shm
        self.trace = trace

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "AttachedGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_group(handle: GroupHandle) -> AttachedGroup:
    """Map a published group and rebuild kernel-ready replay state."""
    shm, views = _attach(handle.block)
    try:
        arrays = object.__new__(kernel.TraceArrays)
        arrays.n = handle.n
        # The timing loop indexes per uop; plain lists beat NumPy
        # scalar indexing there, and .tolist() is one C pass.
        arrays.codes = views["codes"].tolist()
        arrays.src1 = views["src1"].tolist()
        arrays.src2 = views["src2"].tolist()
        arrays.lat = views["lat"].tolist()
        arrays.busy = views["busy"].tolist()
        arrays.load_pos = views["load_pos"].tolist()
        arrays.store_pos = views["store_pos"].tolist()
        arrays.sync_pos = views["sync_pos"].tolist()
        arrays.loads = handle.loads
        arrays.stores = handle.stores
        arrays.branches = handle.branches
        arrays.fp_ops = handle.fp_ops
        arrays.complex_decodes = handle.complex_decodes
        arrays.ifetch_blocks = handle.ifetch_blocks

        images: Dict[bool, kernel.MemoryImage] = {}
        for geometry, any_remote, counts in handle.images:
            tag = f"img{int(geometry)}"
            image = object.__new__(kernel.MemoryImage)
            image.fetch_levels = views[f"{tag}_fetch"]
            image.load_levels = views[f"{tag}_load"]
            image.load_remote = views[f"{tag}_remote"]
            image.any_remote = any_remote
            image.mem_level_counts = dict(counts)
            images[geometry] = image

        state = {
            "arrays": arrays,
            "branches": views["corrects"].tolist(),
            "images": images,
        }
        return AttachedGroup(shm, _TraceProxy(handle.trace_name, state))
    except BaseException:
        shm.close()
        raise


def run_handle_batch(handle: GroupHandle, configs: Sequence[CoreConfig]):
    """Attach, evaluate ``configs`` through the batched kernel, detach.

    Convenience wrapper for pool workers: one call per work unit, the
    mapping never outlives the result list.
    """
    with attach_group(handle) as group:
        return kernel.run_trace_batch(configs, group.trace)


__all__ = [
    "AttachedGroup",
    "BlockHandle",
    "GroupHandle",
    "PublishedGroup",
    "attach_group",
    "publish_group",
    "run_handle_batch",
    "shm_enabled",
]
