"""Tournament branch predictor (Table 9).

4K-entry selector indexed by PC ^ global history, choosing between a
4K-entry local predictor (per-PC 2-bit counters behind a local history
table) and a 4K-entry gshare global predictor; a 4K-entry 4-way BTB and a
32-entry return-address stack complete the front end.

This is a *functional* model: it is consulted per branch and trained on the
outcome; its mispredictions inject the (config-dependent) redirect bubble
into the pipeline model.
"""

from __future__ import annotations

import dataclasses
from typing import List

#: Entries of each counter table (selector, local, global) and of the
#: local history table.  A power of two: indices are masked.
TABLE_ENTRIES = 4096

#: Bits of branch history kept per local-history entry.
LOCAL_HISTORY_BITS = 10


class _Counters:
    """An array of 2-bit saturating counters."""

    def __init__(self, size: int, init: int = 1) -> None:
        if size & (size - 1):
            raise ValueError("counter table size must be a power of two")
        self._table: List[int] = [init] * size
        self._mask = size - 1

    def predict(self, index: int) -> bool:
        return self._table[index & self._mask] >= 2

    def train(self, index: int, taken: bool) -> None:
        i = index & self._mask
        if taken:
            self._table[i] = min(3, self._table[i] + 1)
        else:
            self._table[i] = max(0, self._table[i] - 1)


@dataclasses.dataclass
class PredictorStats:
    """Aggregate accuracy counters."""

    branches: int = 0
    mispredictions: int = 0
    btb_misses: int = 0

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mispredictions / self.branches if self.branches else 1.0


class TournamentPredictor:
    """The Table 9 tournament predictor with BTB and RAS."""

    def __init__(
        self,
        table_entries: int = TABLE_ENTRIES,
        btb_entries: int = 4096,
        btb_ways: int = 4,
        ras_entries: int = 32,
        local_history_bits: int = LOCAL_HISTORY_BITS,
    ) -> None:
        self._selector = _Counters(table_entries)
        self._local = _Counters(table_entries)
        self._global = _Counters(table_entries)
        self._local_history: List[int] = [0] * table_entries
        self._local_mask = table_entries - 1
        self._history_mask = (1 << local_history_bits) - 1
        self._ghr = 0
        self._btb_sets = btb_entries // btb_ways
        self._btb_ways = btb_ways
        self._btb: List[List[int]] = [[] for _ in range(self._btb_sets)]
        self._ras: List[int] = []
        self._ras_entries = ras_entries
        self.stats = PredictorStats()

    # -- BTB ----------------------------------------------------------------

    def _btb_lookup(self, pc: int) -> bool:
        """True on BTB hit; installs the entry (LRU) on miss."""
        line = self._btb[pc % self._btb_sets]
        if pc in line:
            line.remove(pc)
            line.insert(0, pc)
            return True
        line.insert(0, pc)
        if len(line) > self._btb_ways:
            line.pop()
        return False

    # -- prediction -----------------------------------------------------------

    def predict_and_train(self, pc: int, taken: bool) -> bool:
        """Predict one branch, train all tables, return correctness."""
        self.stats.branches += 1

        index = (pc ^ self._ghr) & self._local_mask
        local_idx = (
            self._local_history[pc & self._local_mask] ^ pc
        ) & self._local_mask
        local_pred = self._local.predict(local_idx)
        global_pred = self._global.predict(index)
        use_global = self._selector.predict(index)
        prediction = global_pred if use_global else local_pred

        if taken and not self._btb_lookup(pc):
            self.stats.btb_misses += 1

        # Train the selector toward whichever predictor was right.
        if local_pred != global_pred:
            self._selector.train(index, global_pred == taken)
        self._local.train(local_idx, taken)
        self._global.train(index, taken)
        self._local_history[pc & self._local_mask] = (
            (self._local_history[pc & self._local_mask] << 1) | int(taken)
        ) & self._history_mask
        self._ghr = ((self._ghr << 1) | int(taken)) & self._local_mask

        correct = prediction == taken
        if not correct:
            self.stats.mispredictions += 1
        return correct

    # -- RAS -----------------------------------------------------------------

    def push_return(self, pc: int) -> None:
        """Record a call for later return prediction."""
        self._ras.append(pc)
        if len(self._ras) > self._ras_entries:
            self._ras.pop(0)

    def pop_return(self, pc: int) -> bool:
        """Predict a return; True when the RAS top matches."""
        self.stats.branches += 1
        predicted = self._ras.pop() if self._ras else -1
        correct = predicted == pc
        if not correct:
            self.stats.mispredictions += 1
        return correct
