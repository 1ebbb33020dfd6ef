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
two additionally hard-fail the run on any internal mismatch, golden or
no golden.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Sweep sizes the oracles run at.  Fixed (never taken from the CLI) so
#: the golden baseline is well-defined.
KERNEL_ORACLE_UOPS = 1500
SWEEP_ORACLE_UOPS = 600
SWEEP_ORACLE_SEED = 4321
INTERVAL_ORACLE_UOPS = 2000


def kernel_cpi_oracle() -> Tuple[dict, List[str]]:
    """Scalar OOO oracle vs one batched-kernel pass; returns
    ``(payload, hard_failures)``."""
    from repro.core.configs import single_core_configs
    from repro.uarch.kernel import run_trace_batch
    from repro.uarch.ooo import run_trace
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec import spec_profiles

    configs = single_core_configs()
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


def sweep_identity_oracle() -> Tuple[dict, List[str]]:
    """Serial vs process-pool sweep execution, cache bypassed."""
    from repro.core.configs import single_core_configs
    from repro.engine.sweep import ExperimentEngine, SimSpec
    from repro.workloads.spec import spec_profiles

    configs = single_core_configs()
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

    Never hard-fails: the disagreement *set* is the differential payload
    the golden baseline pins.
    """
    from repro.design.sweep import interval_crosscheck
    from repro.engine.sweep import ExperimentEngine
    from repro.core.configs import single_core_configs
    from repro.workloads.spec import spec_profiles

    configs = single_core_configs()
    profiles = spec_profiles()
    engine = ExperimentEngine(jobs=1)
    _, runs = engine.single_core_runs(
        INTERVAL_ORACLE_UOPS, configs=configs, profiles=profiles
    )
    base = configs[0]
    disagreements: List[str] = []
    for profile in profiles:
        base_run = runs[profile.name][base.name]
        for config in configs[1:]:
            message = interval_crosscheck(
                config, base, runs[profile.name][config.name], base_run,
                label=f"{config.name}/{profile.name}",
            )
            if message is not None:
                disagreements.append(f"{config.name}/{profile.name}")
    payload = {
        "uops": INTERVAL_ORACLE_UOPS,
        "checked": len(profiles) * (len(configs) - 1),
        "disagreements": sorted(disagreements),
    }
    return payload, []


#: Name -> oracle function, in run order.
ORACLES = {
    "kernel_cpi": kernel_cpi_oracle,
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
