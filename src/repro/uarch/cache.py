"""Set-associative cache hierarchy (Table 9).

Private IL1 (32KB/4-way/32B) and DL1 (32KB/8-way/32B), private L2
(256KB/8-way/64B), and a shared L3 (2MB per core, 16-way, 64B).  LRU
replacement throughout.  The hierarchy returns *round-trip latencies in
core cycles* straight from the :class:`~repro.core.configs.CoreConfig`,
so a higher-clocked M3D core automatically pays more cycles for DRAM —
the effect the paper notes in Section 7.1.1.

For multicores, an optional coherence layer tracks which core last wrote a
line; a read of a remote-dirty line costs an extra NoC round trip
(MESI-style cache-to-cache transfer).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.configs import CoreConfig
from repro.lru import LruMemo


#: Lines fetched ahead by the L2 stream prefetcher on each L2 miss.
PREFETCH_DEGREE = 4

#: Line size of the coherence directory's ownership tracking.
COHERENCE_LINE_BYTES = 64


def level_geometries(shared_l2: bool) -> Tuple[Tuple[str, int, int, int], ...]:
    """Table 9's IL1, DL1, L2 and L3, in that order, as ``(name,
    size_bytes, ways, line_bytes)``.

    Figure 4: folded core pairs share their two L2s, doubling the L2
    capacity visible to each core, so ``shared_l2`` is the one knob.
    :class:`CacheHierarchy` and the compiled replay both build their
    levels from this table.
    """
    l2_bytes = 512 * 1024 if shared_l2 else 256 * 1024
    return (
        ("IL1", 32 * 1024, 4, 32),
        ("DL1", 32 * 1024, 8, 32),
        ("L2", l2_bytes, 8, 64),
        ("L3", 2 * 1024 * 1024, 16, 64),
    )


class SetAssociativeCache:
    """One LRU set-associative cache level.

    Each set is a plain list of resident tags, LRU-first / MRU-last.  At
    Table 9's way counts (4-16) the C-level list scan beats every O(1)
    hashed-container scheme we measured.  This is the scalar oracle's
    cache (``$REPRO_KERNEL=0``); the batched kernel replays the same
    per-set order in compiled C (``timing.c``).
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int,
                 name: str = "cache") -> None:
        if size_bytes % (ways * line_bytes):
            raise ValueError(f"{name}: size not divisible by ways*line")
        self.name = name
        self.line_bytes = line_bytes
        self.sets = size_bytes // (ways * line_bytes)
        self.ways = ways
        self._lines: List[List[int]] = [[] for _ in range(self.sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access an address; True on hit.  Installs the line on miss."""
        self.accesses += 1
        tag = address // self.line_bytes
        line = self._lines[tag % self.sets]
        if tag in line:
            line.remove(tag)
            line.append(tag)
            return True
        self.misses += 1
        line.append(tag)
        if len(line) > self.ways:
            line.pop(0)
        return False

class AccessResult:
    """Outcome of one memory access through the hierarchy."""

    __slots__ = ("latency", "level")

    def __init__(self, latency: int, level: str) -> None:
        self.latency = latency
        self.level = level  # "L1", "L2", "L3", "DRAM", "remote"

    def __repr__(self) -> str:
        return f"AccessResult(latency={self.latency}, level={self.level!r})"


#: Memo of post-preload LRU states, one entry per cache level, keyed by
#: the level's geometry and the digests of the resident-line streams it
#: sees (IL1: code; DL1: data; L2 and L3: both).  It serves only the
#: scalar oracle: the batched kernel builds warm state in C on every
#: replay, so the cold report builds no entries here.  It still pays for
#: the oracle, which re-warms the hierarchy for every configuration
#: sweeping the same trace: without it tier-1 took 59-70 s instead of
#: 49-53 s on a 2-vCPU host (two runs each).  Keying per level lets the
#: two L2 geometries of one trace share the IL1, DL1 and L3 states.
#: Values are immutable tuples of per-set tag tuples, copied into the
#: sets on restore.  One (trace, L2 geometry) pair needs at most four
#: entries, so the cap holds at least 256 such pairs.
_PRELOAD_SNAPSHOTS = LruMemo(cap=1024)


def _lines_digest(lines: np.ndarray) -> bytes:
    """Content digest of an ``int64`` resident-line array (order matters
    for LRU)."""
    return hashlib.blake2b(lines.tobytes(), digest_size=16).digest()


def _newest_first_tags(streams, line_bytes: int) -> List[int]:
    """Distinct tags of ``streams`` in *reverse* last-access order.

    In an access-only sequence each set ends up holding its tags in
    last-access order, truncated to ``ways`` — evictions cannot change
    that (an evicted tag re-accessed later reinstalls at its new
    last-access position).  The order depends only on the streams and the
    line size, so levels sharing both (L2 and L3) share this pass.
    """
    recency: Dict[int, None] = {}
    for lines in streams:
        for address in lines:
            tag = address // line_bytes
            if tag in recency:
                del recency[tag]
            recency[tag] = None
    return list(reversed(recency))


def _distribute_tags(newest_first: List[int], sets: int,
                     ways: int) -> Tuple[Tuple[int, ...], ...]:
    """Per-set LRU-first tag tuples filled from a newest-first tag order."""
    lines: List[List[int]] = [[] for _ in range(sets)]
    for tag in newest_first:
        line = lines[tag % sets]
        if len(line) < ways:
            line.append(tag)
    return tuple(tuple(reversed(line)) for line in lines)


class CacheHierarchy:
    """Private L1s + private L2 + shared L3 for one core."""

    def __init__(self, config: CoreConfig, core_id: int = 0,
                 coherence: Optional["CoherenceDirectory"] = None) -> None:
        self.config = config
        self.core_id = core_id
        self.il1, self.dl1, self.l2, self.l3 = (
            SetAssociativeCache(size, ways, line, name)
            for name, size, ways, line in level_geometries(config.shared_l2)
        )
        self.coherence = coherence
        self._never_preloaded = True

    def preload(self, data_lines, code_lines) -> None:
        """Install checkpoint-warm state (LRU keeps what fits).

        Insertion order is the residency order: for working sets larger
        than a level, only the most recently inserted capacity-worth stays,
        exactly as steady-state LRU would leave it.  Data goes in first and
        code last — the instruction stream is re-touched constantly, so at
        steady state it is the most recently used resident.  Only an
        untouched hierarchy can be preloaded: a second call, or a call
        after any access, raises :class:`ValueError`.
        """
        levels = (self.il1, self.dl1, self.l2, self.l3)
        # Warming is a pure function of the resident lines and the cache
        # geometry; snapshot each level's resulting LRU state and restore
        # it for every later hierarchy warming the same lines.  Only safe
        # when this hierarchy is still untouched.
        pristine = self._never_preloaded and not any(
            cache.accesses for cache in levels
        )
        if not pristine:
            raise ValueError(
                "CacheHierarchy.preload needs an untouched hierarchy: "
                "call it once, before any access"
            )
        self._never_preloaded = False
        # Build each level's warm LRU state directly from the streams'
        # last-access order (exact — see :func:`_newest_first_tags`)
        # instead of replaying every access.  Levels that see the same
        # streams at the same line size (L2 and L3) share one recency
        # pass.
        streams = [np.asarray(lines, dtype=np.int64)
                   for lines in (data_lines, code_lines)]
        digests = tuple(_lines_digest(lines) for lines in streams)
        recency: Dict[tuple, List[int]] = {}

        def build(cache: SetAssociativeCache, seen: tuple) -> tuple:
            key = (seen, cache.line_bytes)
            if key not in recency:
                recency[key] = _newest_first_tags(
                    [streams[k].tolist() for k in seen], cache.line_bytes
                )
            return _distribute_tags(recency[key], cache.sets, cache.ways)

        # ``seen`` indexes (data, code): data goes in before code.
        for cache, seen in ((self.il1, (1,)), (self.dl1, (0,)),
                            (self.l2, (0, 1)), (self.l3, (0, 1))):
            key = (cache.name, cache.sets, cache.ways, cache.line_bytes,
                   tuple(digests[k] for k in seen))
            snapshot = _PRELOAD_SNAPSHOTS.get(
                key, lambda: build(cache, seen)
            )
            # Copy into the untouched level's own (empty) set lists.
            for line, tags in zip(cache._lines, snapshot):
                line.extend(tags)

    def fetch(self, address: int) -> AccessResult:
        """Instruction fetch access."""
        if self.il1.access(address):
            return AccessResult(self.config.il1_cycles, "L1")
        if self.l2.access(address):
            return AccessResult(self.config.l2_cycles, "L2")
        if self.l3.access(address):
            return AccessResult(self.config.l3_cycles, "L3")
        return AccessResult(self.config.l3_cycles + self.config.dram_cycles, "DRAM")

    def data_access(self, address: int, is_store: bool = False,
                    noc_penalty: int = 0) -> AccessResult:
        """Data access; ``noc_penalty`` is the extra ring latency to the
        shared L3 / remote caches in a multicore."""
        coherence_extra = 0
        if self.coherence is not None:
            coherence_extra = self.coherence.account(
                self.core_id, address, is_store, noc_penalty
            )
        if self.dl1.access(address):
            return AccessResult(self.config.dl1_cycles + coherence_extra, "L1")
        if self.l2.access(address):
            return AccessResult(self.config.l2_cycles + coherence_extra, "L2")
        # L2 miss: the stream prefetcher pulls the next lines into L2, so a
        # sequential walk pays the long-latency miss only once per run of
        # lines rather than once per line (standard hardware behaviour;
        # pointer chasing gets no benefit).
        for ahead in range(1, PREFETCH_DEGREE + 1):
            next_line = address + ahead * self.l2.line_bytes
            self.l2.access(next_line)
            self.l3.access(next_line)
        if self.l3.access(address):
            return AccessResult(
                self.config.l3_cycles + noc_penalty + coherence_extra, "L3"
            )
        return AccessResult(
            self.config.l3_cycles + noc_penalty + self.config.dram_cycles
            + coherence_extra,
            "DRAM",
        )


class CoherenceDirectory:
    """MESI-flavoured sharing tracker for the multicore (Table 9's
    "Ring with MESI directory-based protocol").

    Tracks the last writer of each line.  A core touching a line that is
    dirty in another core's cache pays a cache-to-cache transfer: one NoC
    round trip.  Writes claim ownership and (logically) invalidate sharers.
    """

    def __init__(self, line_bytes: int = COHERENCE_LINE_BYTES) -> None:
        self.line_bytes = line_bytes
        self._owner: Dict[int, int] = {}
        self.transfers = 0
        self.invalidations = 0

    def account(self, core_id: int, address: int, is_store: bool,
                noc_penalty: int) -> int:
        line = address // self.line_bytes
        owner = self._owner.get(line)
        extra = 0
        if owner is not None and owner != core_id:
            # Remote-dirty: cache-to-cache transfer across the ring.
            self.transfers += 1
            extra = max(2, noc_penalty)
            if is_store:
                self.invalidations += 1
        if is_store:
            self._owner[line] = core_id
        return extra
