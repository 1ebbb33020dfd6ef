"""Content-keyed result cache for the experiment engine.

Every simulation result is stored under a key derived from *all* the
inputs that determine it: the configuration, the application profile, the
trace length, the seed — and a fingerprint of the model source code, so a
change to any module under ``repro`` invalidates every cached result
automatically (the same invalidation discipline CACTI wrappers such as
the Accelergy plug-in apply to their on-disk result stores).

Two layers:

* an in-memory dictionary, shared by every sweep in one process — this is
  what lets figure6/7/8 reuse one single-core sweep and figure9/10 one
  multicore sweep;
* an optional on-disk SQLite layer (``cache_dir/cache.sqlite``), so
  repeated invocations of the runner, the benchmarks, the CLI — and many
  concurrent ``repro serve`` clients — skip simulation entirely.

The disk layer runs in WAL journal mode: readers never block the (single)
writer and a torn write can only ever lose the in-flight transaction,
never corrupt committed rows — which is what makes one cache directory
safe to share between a long-lived server and ad-hoc CLI processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import sqlite3
import threading
import warnings
from pathlib import Path
from typing import Any, Iterable, Optional, Tuple

from repro.lru import LruMemo
from repro.obs.record import current_record

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Hex digest over every ``repro`` source file (computed once).

    Any edit to the models changes the digest, so stale on-disk results
    can never be returned after a code change.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        _FINGERPRINT = source_digest(Path(repro.__file__).resolve().parent)
    return _FINGERPRINT


def source_digest(root: Path) -> str:
    """sha256 over the Python modules and C sources (the compiled timing
    loop) under ``root``, each with its relative path."""
    digest = hashlib.sha256()
    for path in sorted([*root.rglob("*.py"), *root.rglob("*.c")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _canonical(value: Any) -> Any:
    """Reduce a key part to JSON-serialisable, deterministic form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__,
                "fields": _canonical(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot build a cache key from {type(value).__name__}")


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building a new encoder on every call.
_to_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Canonical JSON of each dataclass key part, keyed on ``(type, repr)``.
#: Not on ``==``: dataclass equality treats ``1 == 1.0 == True`` and
#: ``0.0 == -0.0`` as equal, yet their keys differ, while ``repr`` tells
#: them apart (and gives NaN one stable key).  This relies on ``repr``
#: showing every field, as the generated dataclass ``__repr__`` does.
#: Bounded because ``repro serve`` is long-lived.
_PART_JSON = LruMemo(cap=1024)


def _part_json(value: Any) -> str:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _PART_JSON.get((type(value), repr(value)),
                              lambda: _to_json(_canonical(value)))
    return _to_json(_canonical(value))


def make_key(kind: str, **parts: Any) -> str:
    """Stable content key for one result (includes the code fingerprint).

    The hashed payload is byte-for-byte ``json.dumps({"kind": kind,
    "code": ..., "parts": _canonical(parts)}, sort_keys=True,
    separators=(",", ":"))``, assembled from per-part fragments so a
    repeated dataclass part is canonicalised only once.
    """
    fields = ",".join(f"{_to_json(name)}:{_part_json(parts[name])}"
                      for name in sorted(parts))
    payload = (f'{{"code":{_to_json(code_fingerprint())},'
               f'"kind":{_to_json(kind)},"parts":{{{fields}}}}}')
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting, exposed to bench and the tests."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Disk writes that failed (full disk, read-only directory, an
    #: unpicklable result, ...); each one degraded that store to
    #: memory-only instead of aborting the sweep.
    disk_put_failures: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 on an untouched cache)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


#: Filename of the SQLite database inside ``cache_dir``.
DB_FILENAME = "cache.sqlite"

#: How long a writer waits on a contended database before giving up
#: (milliseconds).  Contention is rare — commits are milliseconds — so
#: this is a stall ceiling, not a latency floor.
_BUSY_TIMEOUT_MS = 10_000


class _SqliteLayer:
    """The on-disk half of :class:`ResultCache`: one WAL-mode database.

    One connection per :class:`ResultCache` instance, guarded by an
    ``RLock`` so a multi-threaded server can share the cache object;
    cross-*process* concurrency is SQLite's own WAL contract (concurrent
    readers, one writer at a time, ``busy_timeout`` arbitration).

    Values are pickled into a single ``results(key TEXT PRIMARY KEY,
    value BLOB)`` table.
    """

    def __init__(self, cache_dir: Path) -> None:
        self.path = cache_dir / DB_FILENAME
        self._lock = threading.RLock()
        self._conn = self._connect()

    def _connect(self) -> sqlite3.Connection:
        try:
            conn = self._open()
        except sqlite3.DatabaseError:
            # A corrupt/foreign file where the database should be: a
            # cache is rebuildable by definition, so start over rather
            # than failing every sweep from here on.
            self.path.unlink(missing_ok=True)
            conn = self._open()
        return conn

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_MS / 1000,
                               check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            # NORMAL is the recommended WAL-mode level: the log is synced
            # at checkpoint boundaries, so a power loss can drop the tail
            # of recent commits but never corrupts the database — the
            # same "lose at most the in-flight tail" contract the explore
            # store makes.
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                "key TEXT PRIMARY KEY, value BLOB NOT NULL)"
            )
            conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def get(self, key: str) -> Tuple[bool, Any]:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM results WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return False, None
        try:
            return True, pickle.loads(row[0])
        except Exception:
            # A corrupt blob is a miss; drop the row so it is not
            # re-deserialised on every lookup.
            with self._lock, self._conn:
                self._conn.execute("DELETE FROM results WHERE key = ?",
                                   (key,))
            return False, None

    def put(self, key: str, value: Any) -> None:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results (key, value) VALUES (?, ?)",
                (key, blob),
            )

    def put_many(self, items: Iterable[Tuple[str, bytes]]) -> None:
        """Commit pre-pickled ``(key, blob)`` pairs in one transaction."""
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO results (key, value) VALUES (?, ?)",
                items,
            )

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class ResultCache:
    """Two-layer (memory + optional SQLite WAL) store for results."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 max_memory_entries: int = 8192) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_memory_entries = max_memory_entries
        self._memory: dict = {}
        self.stats = CacheStats()
        self._disk_warned = False
        self._disk: Optional[_SqliteLayer] = None
        self._lock = threading.RLock()
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._disk = _SqliteLayer(self.cache_dir)

    # -- lookup ---------------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; consults memory first, then disk."""
        with self._lock:
            memory = self._memory
            if key in memory:
                self._count("memory_hits")
                # Refresh recency: a hit entry moves to the back of the
                # eviction queue (dicts preserve insertion order).
                value = memory.pop(key)
                memory[key] = value
                return True, value
            if self._disk is not None:
                try:
                    hit, value = self._disk.get(key)
                except sqlite3.Error:
                    hit, value = False, None
                if hit:
                    self._count("disk_hits")
                    self._remember(key, value)
                    return True, value
            self._count("misses")
            return False, None

    def put(self, key: str, value: Any) -> None:
        """Store a result in memory and (if configured) on disk.

        Disk failures must not kill an otherwise-healthy sweep — neither
        I/O failures (full disk, read-only cache directory, a locked
        database, ...) nor serialization failures (a result holding a
        lambda, a generator, an open handle, ...).  Either way the store
        degrades to memory-only with a one-time warning, and every
        failed write is counted in ``stats.disk_put_failures``.
        """
        with self._lock:
            self._count("stores")
            self._remember(key, value)
            if self._disk is not None:
                try:
                    self._disk.put(key, value)
                except (sqlite3.Error, OSError, pickle.PickleError,
                        TypeError, AttributeError) as exc:
                    self._degrade(exc)

    def put_many(self, items) -> None:
        """Store a batch of ``(key, value)`` pairs (one kernel group).

        Same semantics as :meth:`put` per pair — ``stores`` counting,
        disk degradation — but the disk half commits the whole batch in
        one SQLite transaction, so a pipelined sweep pays one fsync per
        unit instead of one per result.
        """
        items = list(items)
        with self._lock:
            self._count("stores", len(items))
            blobs = []
            for key, value in items:
                self._remember(key, value)
                if self._disk is not None:
                    try:
                        blobs.append(
                            (key, pickle.dumps(
                                value, protocol=pickle.HIGHEST_PROTOCOL)))
                    except (pickle.PickleError, TypeError,
                            AttributeError) as exc:
                        self._degrade(exc)
            if self._disk is not None and blobs:
                try:
                    self._disk.put_many(blobs)
                except (sqlite3.Error, OSError) as exc:
                    self._count("disk_put_failures", len(blobs) - 1)
                    self._degrade(exc)

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries survive)."""
        with self._lock:
            self._memory.clear()

    def close(self) -> None:
        """Release the database connection (idempotent).

        Long-lived owners (the server) close on shutdown; short-lived
        processes can rely on interpreter teardown as before.
        """
        with self._lock:
            if self._disk is not None:
                self._disk.close()
                self._disk = None

    # -- internals ------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a lifetime counter and the active run record's delta."""
        setattr(self.stats, name, getattr(self.stats, name) + n)
        record = current_record()
        if record is not None:
            record.cache[name] += n

    def _degrade(self, exc: BaseException) -> None:
        self._count("disk_put_failures")
        if not self._disk_warned:
            self._disk_warned = True
            warnings.warn(
                f"result cache: disk write to {self.cache_dir} "
                f"failed ({exc}); continuing memory-only",
                RuntimeWarning,
                stacklevel=3,
            )

    def _remember(self, key: str, value: Any) -> None:
        memory = self._memory
        if key in memory:
            # Re-store of a live key: refresh its recency, no eviction.
            del memory[key]
        elif len(memory) >= self.max_memory_entries:
            # Evict the least recently used quarter: both ``get`` hits
            # and re-stores move keys to the back of the dict, so the
            # front really is the coldest end (true LRU — insertion
            # order alone would evict the hottest keys first).
            for stale in list(memory)[: self.max_memory_entries // 4]:
                del memory[stale]
        memory[key] = value


def memoized(kind: str):
    """Memoize a pure experiment function through the default engine cache.

    Used by the table generators whose sweeps repeat across the runner,
    the CLI and the benchmark suite.  Arguments must be hashable into a
    content key (strings/numbers/dataclasses).
    """

    def decorate(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from repro.engine.sweep import get_engine

            cache = get_engine().cache
            key = make_key(f"memo:{kind}", args=list(args), kwargs=kwargs)
            hit, value = cache.get(key)
            if hit:
                return value
            value = fn(*args, **kwargs)
            cache.put(key, value)
            return value

        wrapper.__wrapped__ = fn
        return wrapper

    return decorate
