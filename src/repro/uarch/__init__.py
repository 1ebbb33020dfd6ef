"""Microarchitecture simulation: OOO core, predictor, caches, ring NoC and
the multicore barrier-aligned model (the repo's Multi2Sim replacement)."""

from repro.uarch.bpred import PredictorStats, TournamentPredictor
from repro.uarch.cache import (
    AccessResult,
    CacheHierarchy,
    CoherenceDirectory,
    SetAssociativeCache,
)
from repro.uarch.interval import (
    WorkloadStats,
    predict_cpi,
    workload_stats_from_sim,
)
from repro.uarch.isa import FU_POOLS, OP_LATENCY, MicroOp, OpClass, Trace
from repro.uarch.kernel import kernel_enabled, run_trace_batch
from repro.uarch.multicore import (
    MulticoreResult,
    evaluate_tiles,
    run_parallel_batch,
    run_parallel_tiles,
)
from repro.uarch.noc import MeshNoc, Noc, RingNoc
from repro.uarch.ooo import OutOfOrderCore, SimResult, SimStats, run_trace

__all__ = [
    "PredictorStats",
    "TournamentPredictor",
    "AccessResult",
    "CacheHierarchy",
    "CoherenceDirectory",
    "SetAssociativeCache",
    "WorkloadStats",
    "predict_cpi",
    "workload_stats_from_sim",
    "kernel_enabled",
    "run_trace_batch",
    "run_parallel_batch",
    "FU_POOLS",
    "OP_LATENCY",
    "MicroOp",
    "OpClass",
    "Trace",
    "MulticoreResult",
    "run_parallel_tiles",
    "evaluate_tiles",
    "MeshNoc",
    "Noc",
    "RingNoc",
    "OutOfOrderCore",
    "SimResult",
    "SimStats",
    "run_trace",
]
