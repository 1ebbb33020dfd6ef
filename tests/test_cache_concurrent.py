"""Concurrent multi-process access to the SQLite-WAL `ResultCache`.

Contract under test: many processes sharing one cache directory —
the `repro serve` deployment shape, where a long-lived server and
ad-hoc CLI runs point at the same cache — never see torn values
(WAL readers see committed rows only), writes from any process become
visible to fresh readers, and the in-memory LRU semantics are unchanged
by the backend swap.

Worker functions are module-level so the fork start method pickles them
by reference; every process opens its *own* cache (its own SQLite
connection) — connections are never shared across a fork.
"""

import multiprocessing
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.cache import DB_FILENAME, ResultCache

_CTX = multiprocessing.get_context("fork")

#: Per-writer entry count for the contention test: small enough to be
#: fast, large enough that writers genuinely overlap.
N_ENTRIES = 40


def _expected_value(prefix: str, i: int):
    """The (deterministic) value stored under ``{prefix}{i}``."""
    return {"writer": prefix, "i": i, "payload": list(range(i % 7 + 3))}


def _writer_proc(cache_dir, prefix):
    cache = ResultCache(cache_dir)
    for i in range(N_ENTRIES):
        cache.put_many([(f"{prefix}{i}", _expected_value(prefix, i))])
    cache.close()


def _reader_proc(cache_dir, prefixes, out):
    """Hammer reads while writers churn; report every torn value seen.

    A hit must be the complete committed value — a partially-written
    blob would fail to unpickle (counted by the cache as a miss and a
    dropped row, which the parent's final sweep would then detect as a
    lost key).
    """
    cache = ResultCache(cache_dir)
    torn = []
    hits = 0
    for _ in range(5):
        for prefix in prefixes:
            for i in range(N_ENTRIES):
                hit, value = cache.get(f"{prefix}{i}")
                if hit:
                    hits += 1
                    if value != _expected_value(prefix, i):
                        torn.append((f"{prefix}{i}", value))
    cache.close()
    out.put({"torn": torn, "hits": hits})


def _put_all(cache_dir, items, batched):
    """Store ``items`` in one transaction, or one transaction per pair."""
    cache = ResultCache(cache_dir)
    if batched:
        cache.put_many(items)
    else:
        for item in items:
            cache.put_many([item])
    cache.close()


class TestMultiprocessAccess:
    def test_concurrent_writers_and_readers_no_torn_reads(self, tmp_path):
        out = _CTX.Queue()
        writers = [
            _CTX.Process(target=_writer_proc, args=(tmp_path, prefix))
            for prefix in ("aa-", "bb-")
        ]
        readers = [
            _CTX.Process(target=_reader_proc,
                         args=(tmp_path, ("aa-", "bb-"), out))
            for _ in range(2)
        ]
        for proc in writers + readers:
            proc.start()
        reports = [out.get(timeout=120) for _ in readers]
        for proc in writers + readers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        for report in reports:
            assert report["torn"] == []  # every hit was a committed value
        # Nothing was lost to contention: a fresh process sees every key.
        final = ResultCache(tmp_path)
        for prefix in ("aa-", "bb-"):
            for i in range(N_ENTRIES):
                hit, value = final.get(f"{prefix}{i}")
                assert hit and value == _expected_value(prefix, i)
        assert final.stats.disk_hits == 2 * N_ENTRIES

    def test_writes_visible_across_processes_without_reopen(self, tmp_path):
        """A long-lived reader (the server) sees rows committed by a
        CLI process that started *after* the reader opened the cache."""
        reader = ResultCache(tmp_path)
        assert not reader.get("late-key")[0]
        writer = _CTX.Process(
            target=_put_all,
            args=(tmp_path, [("late-key", {"v": 7})], False))
        writer.start()
        writer.join(timeout=120)
        assert writer.exitcode == 0
        hit, value = reader.get("late-key")
        assert hit and value == {"v": 7}


class TestLruSemanticsWithSqliteBackend:
    def test_eviction_and_recency_are_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path, max_memory_entries=8)
        for i in range(8):
            cache.put_many([(f"k{i}", i)])
        assert cache.get("k0")[0]  # refresh: k0 is now most recent
        cache.put_many([("k8", 8)])  # over capacity: evicts the stale quarter
        assert cache.stats.memory_hits == 1
        hit, value = cache.get("k0")
        assert hit and value == 0 and cache.stats.memory_hits == 2
        # k1 fell out of memory but the disk layer still serves it —
        # eviction is a memory policy, not data loss.
        hit, value = cache.get("k1")
        assert hit and value == 1
        assert cache.stats.disk_hits == 1

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_many([("k", [1, 2])])
        cache.clear_memory()
        hit, value = cache.get("k")
        assert hit and value == [1, 2]
        assert cache.stats.disk_hits == 1 and cache.stats.memory_hits == 0


_VALUES = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=24),
    st.lists(st.integers(min_value=0, max_value=99), max_size=6),
)
_KEYS = st.text(alphabet="0123456789abcdef", min_size=2, max_size=20)


class TestRoundTripProperty:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=6))
    def test_get_after_put_under_interleaved_processes(self, ops):
        """A stored ``(k, v)`` reads back as ``v`` when two processes
        race the same writes on one database (one commits each pair on
        its own, the other the whole batch at once)."""
        items = sorted(ops.items())
        with tempfile.TemporaryDirectory(prefix="repro-cache-prop-") as tmp:
            cache_dir = Path(tmp)
            procs = [
                _CTX.Process(target=_put_all,
                             args=(cache_dir, items, batched))
                for batched in (False, True)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=120)
                assert proc.exitcode == 0
            cache = ResultCache(cache_dir)
            try:
                for key, value in items:
                    hit, got = cache.get(key)
                    assert hit and got == value
            finally:
                cache.close()

    def test_db_filename_is_stable(self, tmp_path):
        """The database name is load-bearing (other processes must find
        it); pin it so a rename cannot silently split the cache."""
        ResultCache(tmp_path).put_many([("k", 1)])
        assert DB_FILENAME == "cache.sqlite"
        assert (tmp_path / DB_FILENAME).exists()
