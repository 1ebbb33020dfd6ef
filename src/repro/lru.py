"""A tiny capped LRU memo shared by every hand-rolled cache in the tree.

The call sites that used to carry their own OrderedDict + cap +
eviction loop (the multicore trace/image memos, the kernel-path trace
memo and the warm-cache snapshots) all ride on :class:`LruMemo` now.  The class is dependency-free on
purpose — it sits at the top of the package so ``repro.uarch``,
``repro.engine`` and ``repro.thermal`` can all import it without
creating cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable


class LruMemo:
    """An ordered mapping capped at ``cap`` entries, evicting oldest-used.

    ``get(key, build)`` returns the cached value for ``key`` (refreshing
    its recency) or calls ``build()`` and caches the result.  Not
    thread-safe: a memo shared between threads is used under a lock of
    its owner's, as the served request plans are.
    """

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError(f"LruMemo cap must be >= 1, got {cap}")
        self.cap = cap
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            value = build()
            self.put(key, value)
            return value
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key`` as the most recently used entry,
        replacing any cached value."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.cap:
            self._data.popitem(last=False)

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value without building (refreshes recency)."""
        if key in self._data:
            self._data.move_to_end(key)
            return self._data[key]
        return default

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()
