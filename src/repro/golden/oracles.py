"""Differential oracles: independent implementations must agree.

Golden snapshots catch drift against the past; the oracles catch drift
between *redundant implementations in the present*.  The repository
deliberately keeps several ways of computing the same quantity — the
untouched scalar OOO core vs the batched SoA kernel, the cycle-accurate
model vs the analytic interval model, serial vs process-pool sweep
execution — and ``repro validate --deep`` runs them against each other:

``kernel_cpi``
    Per-config ``run_trace`` (the oracle) vs one ``run_trace_batch``
    pass.  Full ``SimResult`` equality is required; the payload records
    the max CPI divergence (must be exactly 0.0) so the drift report
    names the magnitude.

``kernel_multicore``
    ``run_parallel_tiles`` (the oracle) vs ``evaluate_tiles`` on one
    parallel profile, for a private-L2 and a shared-L2 multicore config.
    Each core measures more than ``PRUNE_INTERVAL`` uops and crosses a
    barrier, and the cores share the coherence directory, so the check
    reaches the window prunes, the shared L2, the NoC penalty, SYNC
    alignment and the coherence transfers that ``kernel_cpi`` never
    does.  Full ``MulticoreResult`` equality is required; the payload
    records each config's transfer count.

``sweep_identity``
    The same spec batch through a serial engine and a two-worker
    process-pool engine, both with the result cache bypassed.  Results
    must be equal element-by-element.

``interval_direction``
    The cycle model and the interval model on the *direction* of every
    Base→config CPI change (single-core, significance threshold from
    :mod:`repro.design.sweep`).  Known disagreements are part of the
    golden baseline: validation fails only when the disagreement *set*
    changes — a new disagreement (or a silently vanished one) means a
    model changed behaviour.

Oracle payloads are themselves snapshotted (``goldens/oracles.json``),
so the comparison engine diffs them like any other artifact; the first
three additionally hard-fail the run on any internal mismatch, golden or
no golden.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Sweep sizes the oracles run at.  Fixed (never taken from the CLI) so
#: the golden baseline is well-defined.
KERNEL_ORACLE_UOPS = 1500
MULTICORE_ORACLE_UOPS = 18000
MULTICORE_ORACLE_PROFILE = "Ocean"
SWEEP_ORACLE_UOPS = 600
SWEEP_ORACLE_SEED = 4321
INTERVAL_ORACLE_UOPS = 2000


def kernel_cpi_oracle() -> Tuple[dict, List[str]]:
    """Scalar OOO oracle vs one batched-kernel pass; returns
    ``(payload, hard_failures)``."""
    from repro.design.resolve import paper_single_core_configs
    from repro.uarch.kernel import run_trace_batch
    from repro.uarch.ooo import run_trace
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec import spec_profiles

    configs = paper_single_core_configs()
    profile = spec_profiles()[0]

    def fresh_trace():
        return generate_trace(profile, KERNEL_ORACLE_UOPS, seed=1234)

    trace = fresh_trace()
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, fresh_trace())

    def cpi(result) -> float:
        return result.cycles / max(1, result.stats.uops)

    max_divergence = max(
        abs(cpi(r) - cpi(o)) for r, o in zip(batched, oracle)
    )
    failures = [
        f"kernel_cpi: batched kernel diverges from the scalar oracle on "
        f"config {expected.config_name!r}"
        for result, expected in zip(batched, oracle)
        if result != expected
    ]
    payload = {
        "uops": KERNEL_ORACLE_UOPS,
        "profile": profile.name,
        "configs": [config.name for config in configs],
        "max_cpi_divergence": max_divergence,
        "exact": not failures,
    }
    return payload, failures


def kernel_multicore_oracle() -> Tuple[dict, List[str]]:
    """Scalar per-tile oracle vs the kernel's tile path on multicore
    configs with a private and a shared L2; returns
    ``(payload, hard_failures)``."""
    from repro.design.resolve import resolve
    from repro.uarch.multicore import evaluate_tiles, run_parallel_tiles
    from repro.workloads.parallel import parallel_by_name

    profile = parallel_by_name()[MULTICORE_ORACLE_PROFILE]
    configs = [resolve("Base-4C").config, resolve("M3D-Het-4C").config]
    failures: List[str] = []
    transfers: List[int] = []
    for config in configs:
        tiles = [config] * config.num_cores
        oracle = run_parallel_tiles(tiles, profile, MULTICORE_ORACLE_UOPS)
        kernel = evaluate_tiles(tiles, profile, MULTICORE_ORACLE_UOPS)
        transfers.append(oracle.coherence_transfers)
        if kernel != oracle:
            failures.append(
                f"kernel_multicore: the kernel's tile path diverges from "
                f"the scalar oracle on config {config.name!r}"
            )
    payload = {
        "uops": MULTICORE_ORACLE_UOPS,
        "profile": profile.name,
        "configs": [config.name for config in configs],
        "transfers": transfers,
        "exact": not failures,
    }
    return payload, failures


def sweep_identity_oracle() -> Tuple[dict, List[str]]:
    """Serial vs process-pool sweep execution, cache bypassed."""
    from repro.design.resolve import paper_single_core_configs
    from repro.engine.sweep import ExperimentEngine, SimSpec
    from repro.workloads.spec import spec_profiles

    configs = paper_single_core_configs()
    profiles = spec_profiles()[:2]
    specs = [
        SimSpec("single", config, profile, SWEEP_ORACLE_UOPS,
                SWEEP_ORACLE_SEED)
        for profile in profiles
        for config in configs
    ]
    serial = ExperimentEngine(jobs=1).run_specs(specs, use_cache=False)
    parallel = ExperimentEngine(jobs=2).run_specs(specs, use_cache=False)
    mismatches = [
        f"sweep_identity: {spec.profile.name}/{spec.config.name} differs "
        f"between serial and parallel execution"
        for spec, a, b in zip(specs, serial, parallel)
        if a != b
    ]
    payload = {
        "uops": SWEEP_ORACLE_UOPS,
        "seed": SWEEP_ORACLE_SEED,
        "specs": len(specs),
        "mismatches": len(mismatches),
        "identical": not mismatches,
    }
    return payload, mismatches


def interval_direction_oracle() -> Tuple[dict, List[str]]:
    """Cycle model vs interval model on CPI-change direction.

    Reads the disagreements :func:`repro.design.sweep.evaluate_points`
    records for the paper's single-core lineup, every design against
    Base.  Never hard-fails: the disagreement *set* is the differential
    payload the golden baseline pins.
    """
    from repro.design.registry import PAPER_SINGLE_CORE
    from repro.design.sweep import evaluate_points
    from repro.engine.sweep import ExperimentEngine

    # The lineup starts with Base, the reference of every other design.
    _, *designs = evaluate_points(
        PAPER_SINGLE_CORE, uops=INTERVAL_ORACLE_UOPS,
        engine=ExperimentEngine(jobs=1),
    )
    payload = {
        "uops": INTERVAL_ORACLE_UOPS,
        "checked": sum(len(ev.apps) for ev in designs),
        "disagreements": sorted(
            label for ev in designs for label in ev.disagreements
        ),
    }
    return payload, []


#: Name -> oracle function, in run order.
ORACLES = {
    "kernel_cpi": kernel_cpi_oracle,
    "kernel_multicore": kernel_multicore_oracle,
    "sweep_identity": sweep_identity_oracle,
    "interval_direction": interval_direction_oracle,
}


def run_deep_oracles() -> Tuple[Dict[str, dict], List[str]]:
    """Run every oracle; returns ``(payload_by_name, hard_failures)``."""
    payloads: Dict[str, dict] = {}
    failures: List[str] = []
    for name, oracle in ORACLES.items():
        payload, hard = oracle()
        payloads[name] = payload
        failures.extend(hard)
    return payloads, failures
