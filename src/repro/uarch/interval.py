"""Analytical (interval) performance model — a fast cross-check.

Interval analysis (Karkhanis & Smith) predicts IPC from first-order
statistics: the core sustains its dispatch width between *miss events*
(branch mispredictions, long-latency cache misses), each of which drains
and refills the window.  The model is orders of magnitude faster than the
cycle model, and :func:`repro.design.sweep.interval_crosscheck` uses it to
sanity-check the simulator's trends — if the two disagree on the
*direction* of a config CPI change, something is broken.
"""

from __future__ import annotations

import dataclasses

from repro.core.configs import CoreConfig


@dataclasses.dataclass(frozen=True)
class WorkloadStats:
    """First-order statistics of a workload (per instruction)."""

    mispredicts_per_kilo: float
    l2_misses_per_kilo: float  # hits in L3
    dram_misses_per_kilo: float
    base_ipc_limit: float = 4.0  # dataflow/width limit with no miss events

    def __post_init__(self) -> None:
        if self.base_ipc_limit <= 0:
            raise ValueError("base IPC limit must be positive")
        if min(self.mispredicts_per_kilo, self.l2_misses_per_kilo,
               self.dram_misses_per_kilo) < 0:
            raise ValueError("event rates must be non-negative")


def predict_cpi(config: CoreConfig, workload: WorkloadStats,
                memory_parallelism: float = 3.0) -> float:
    """Predicted cycles per instruction under interval analysis.

    ``CPI = 1/ipc_limit + sum_events(rate * penalty)``; long-latency
    misses overlap by ``memory_parallelism``.
    """
    base = 1.0 / min(workload.base_ipc_limit, config.dispatch_width)
    branch_penalty = config.branch_mispredict_cycles
    cpi = base
    cpi += workload.mispredicts_per_kilo / 1000.0 * branch_penalty
    cpi += workload.l2_misses_per_kilo / 1000.0 * (
        config.l3_cycles / memory_parallelism
    )
    cpi += workload.dram_misses_per_kilo / 1000.0 * (
        (config.l3_cycles + config.dram_cycles) / memory_parallelism
    )
    # Load-to-use: every instruction pays a share of the load feed delay.
    cpi += 0.06 * (config.load_to_use_cycles - 3)
    return cpi


def workload_stats_from_sim(result) -> WorkloadStats:
    """First-order workload statistics extracted from a cycle-model run.

    ``result`` is a :class:`~repro.uarch.ooo.SimResult` (or anything with
    compatible ``.stats``).  The rates are per *measured* uop;
    ``mem_level_counts`` buckets loads by the level that served them, so
    L3 hits are the cycle model's L2 misses and DRAM hits its L3 misses
    — exactly the two event classes the interval model charges for.
    """
    stats = getattr(result, "stats", result)
    uops = max(1, stats.uops)
    levels = getattr(stats, "mem_level_counts", {}) or {}
    return WorkloadStats(
        mispredicts_per_kilo=stats.mispredictions * 1000.0 / uops,
        l2_misses_per_kilo=levels.get("L3", 0) * 1000.0 / uops,
        dram_misses_per_kilo=levels.get("DRAM", 0) * 1000.0 / uops,
    )
