"""The append-only JSONL result store behind ``repro explore``.

One line per evaluated design point, written (and flushed) the moment
the evaluation lands — so a killed run loses at most the point in
flight.  Each record carries the same identity discipline as the
:class:`~repro.engine.cache.ResultCache`: a **content key** over every
input that determines the result (the point's physical fields plus the
evaluation sizes) that already embeds the **code fingerprint**, and the
fingerprint again as an explicit field for human inspection.  A
restarted ``repro explore`` replays the store, skips every key it
already holds, and continues — after a *code* change the keys no longer
match, so stale results are never resumed over (exactly the CACTI-style
persistent-record-store discipline of the Accelergy plug-in).

Crash safety on the read side: a truncated final line (the write that
died mid-crash) or any unparseable line is ignored, not fatal.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.engine.cache import code_fingerprint, make_key

#: Store record schema; bump when the line shape changes.
STORE_SCHEMA_VERSION = "repro-explore-v1"

PathLike = Union[str, os.PathLike]


def point_key(point, *, uops: int, seed: int, grid: int,
              apps: Optional[int]) -> str:
    """The content key identifying one evaluated point.

    Keyed on the point's *physical* fields — name/description/group are
    identity cosmetics, so two identically-configured points (e.g.
    duplicate draws of a random space) share one key and one
    evaluation — plus every evaluation size, with the code fingerprint
    folded in by :func:`~repro.engine.cache.make_key`.
    """
    fields = point.to_dict()
    for cosmetic in ("name", "description", "group"):
        fields.pop(cosmetic, None)
    return make_key("explore:point", point=fields, uops=uops, seed=seed,
                    grid=grid, apps=apps)


def evaluation_record(key: str, point, evaluation,
                      params: Dict[str, Any]) -> Dict[str, Any]:
    """One JSONL line's payload for an evaluated point."""
    return {
        "schema": STORE_SCHEMA_VERSION,
        "key": key,
        "fingerprint": code_fingerprint(),
        "name": point.name,
        "point": point.to_dict(),
        "params": dict(params),
        "ghz": evaluation.ghz,
        "apps": list(evaluation.apps),
        "cpi": list(evaluation.cpi),
        "speedup": list(evaluation.speedup),
        "energy": list(evaluation.energy),
        "peak_c": list(evaluation.peak_c),
        "summary": evaluation.summary_row(),
    }


class ResultStore:
    """Append-only JSONL store, one record per evaluated point.

    ``path=None`` keeps the store purely in memory (used by one-shot
    runs — golden builds, tests — that need the dedup/resume semantics
    but no persistence).

    Writes go through one append-mode handle held for the store's
    lifetime (opened lazily on the first append, released by
    :meth:`close` or the context manager) — a million-point sweep pays
    one ``open`` total, not one per record.  :meth:`append` stays
    fsync-per-record for single-point callers; :meth:`append_many`
    group-commits a whole chunk under one flush+fsync, so a crash loses
    at most that in-flight chunk — which resume re-evaluates anyway.
    """

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: Dict[str, Dict[str, Any]] = {}
        self._lines = 0
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._replay()

    # -- read side ------------------------------------------------------------

    def _replay(self) -> None:
        """Load completed records from disk, tolerating a torn tail."""
        assert self.path is not None
        if not self.path.exists():
            return
        current = code_fingerprint()
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                self._lines += 1
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A torn write from a crashed run; the key never
                    # registered, so the point is simply re-evaluated.
                    continue
                if not isinstance(record, dict):
                    continue
                key = record.get("key")
                if not isinstance(key, str):
                    continue
                if record.get("fingerprint") != current:
                    # Stale code: the key would not match any current
                    # point_key either, but skip explicitly.
                    continue
                self._records[key] = record

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._records.get(key)

    def line_count(self) -> int:
        """Physical lines seen on disk plus lines appended this run
        (diagnostics: equals ``len(self)`` on a clean, dedup'd store)."""
        return self._lines

    # -- write side -----------------------------------------------------------

    @staticmethod
    def _encode(record: Dict[str, Any]) -> str:
        return json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"

    def _writer(self):
        """The persistent append handle (opened on first use)."""
        if self._handle is None:
            assert self.path is not None
            self._handle = self.path.open("a", encoding="utf-8")
        return self._handle

    def _commit(self, handle) -> None:
        """Make everything written so far durable (one flush + fsync)."""
        handle.flush()
        os.fsync(handle.fileno())

    def append(self, record: Dict[str, Any]) -> None:
        """Register (and, when disk-backed, durably append) one record.

        Durability per call: the record is flushed and fsynced before
        ``append`` returns, so a killed run loses at most the record in
        flight.  Chunked writers use :meth:`append_many` to pay that
        fsync once per chunk instead.
        """
        key = record["key"]
        self._records[key] = record
        if self.path is not None:
            handle = self._writer()
            handle.write(self._encode(record))
            self._commit(handle)
            self._lines += 1

    def append_many(self, records: Iterable[Dict[str, Any]]) -> None:
        """Group-commit a batch of records: write all, then fsync once.

        The durability unit becomes the batch — after a crash either the
        whole chunk is replayable or its tail is torn (and torn lines
        are skipped on replay, so those points are simply re-evaluated).
        Bytes on disk are identical to the same records appended one by
        one; only the fsync schedule differs.
        """
        records = list(records)
        for record in records:
            self._records[record["key"]] = record
        if self.path is not None and records:
            handle = self._writer()
            for record in records:
                handle.write(self._encode(record))
            self._commit(handle)
            self._lines += len(records)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the append handle (idempotent; reopens on next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "evaluation_record",
    "point_key",
]
