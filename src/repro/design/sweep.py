"""End-to-end evaluation of arbitrary design points (``repro sweep``).

For every requested point — registered name, JSON-declared spec, or
:class:`DesignPoint` object — the sweep resolves the full pipeline
(stack → partition plans → frequency → core config), then runs the
figure-6/7/8-style evaluation against the 2D Base reference through
:mod:`repro.engine`: simulated CPI/speedup per application, energy
normalised to Base, and peak temperature on the point's thermal stack.
Engine caching, ``--jobs`` parallelism and run manifests apply exactly
as they do for the paper figures.

Single-core points (``num_cores == 1``) run the SPEC suite against the
single-core Base; multicore points run the parallel suite against the
4-core Base of Figure 9.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.design.resolve import ResolvedDesign, as_point, resolve
from repro.obs import warn_model_disagreement

#: The registered point every evaluation is normalised to.
BASELINE_POINT: str = "Base"

#: Core count of the multicore reference design (Figure 9's 4-core Base).
MULTICORE_BASELINE_CORES: int = 4


@dataclasses.dataclass(frozen=True)
class PointEvaluation:
    """One design point evaluated end-to-end over an application suite."""

    design: ResolvedDesign
    apps: List[str]
    cpi: List[float]  # effective cycles per uop (incl. barrier waits)
    speedup: List[float]  # wall-clock speedup over the Base reference
    energy: List[float]  # total energy normalised to Base at equal work
    peak_c: List[float]  # peak temperature on the point's thermal stack

    @property
    def name(self) -> str:
        return self.design.point.name

    @property
    def display_name(self) -> str:
        return self.design.display_name

    @property
    def ghz(self) -> float:
        return self.design.derivation.ghz

    def _avg(self, series: List[float]) -> float:
        return sum(series) / len(series) if series else 0.0

    @property
    def avg_cpi(self) -> float:
        return self._avg(self.cpi)

    @property
    def avg_speedup(self) -> float:
        return self._avg(self.speedup)

    @property
    def avg_energy(self) -> float:
        return self._avg(self.energy)

    @property
    def avg_peak_c(self) -> float:
        return self._avg(self.peak_c)

    @property
    def max_peak_c(self) -> float:
        return max(self.peak_c) if self.peak_c else 0.0

    def summary_row(self) -> Dict[str, float]:
        """The headline numbers, ready for printing or a manifest."""
        return {
            "ghz": self.ghz,
            "cpi": self.avg_cpi,
            "speedup": self.avg_speedup,
            "energy": self.avg_energy,
            "peak_c": self.max_peak_c,
        }

    def print(self) -> None:
        point = self.design.point
        derivation = self.design.derivation
        print(f"\n=== {self.name} "
              f"({point.stack}, {point.partition}, "
              f"{point.num_cores} core{'s' if point.num_cores > 1 else ''}) ===")
        if point.description:
            print(f"  {point.description}")
        print(f"  frequency: {derivation.ghz:.2f} GHz "
              f"(limiter: {derivation.limiting_structure})")
        header = ("app".ljust(15) + f"{'cpi':>10}{'speedup':>10}"
                  f"{'energy':>10}{'peak C':>10}")
        print(header)
        for i, app in enumerate(self.apps):
            print(app.ljust(15)
                  + f"{self.cpi[i]:10.3f}{self.speedup[i]:10.3f}"
                  + f"{self.energy[i]:10.3f}{self.peak_c[i]:10.2f}")
        # Two summary rows: averages are averages, and the headline
        # temperature is explicitly the maximum (printing max_peak_c in
        # an "Average" row reads as an average temperature).
        print("Average".ljust(15)
              + f"{self.avg_cpi:10.3f}{self.avg_speedup:10.3f}"
              + f"{self.avg_energy:10.3f}{self.avg_peak_c:10.2f}")
        print("Max peak".ljust(15) + " " * 30 + f"{self.max_peak_c:10.2f}")


def _effective_cpi(result, num_cores: int) -> float:
    """Cycles per uop at the aligned wall clock (barrier waits included)."""
    uops = getattr(result, "total_uops", None)
    if uops is None:
        uops = result.stats.uops
    return result.cycles * num_cores / max(1, uops)


#: Relative CPI changes smaller than this are treated as flat by the
#: interval-model cross-check — inside both models' noise floor, the
#: *direction* of the change carries no signal.
INTERVAL_CHECK_THRESHOLD: float = 0.02


def interval_crosscheck(config, base_config, run, base_run,
                        label: str,
                        threshold: float = INTERVAL_CHECK_THRESHOLD):
    """Compare the cycle model and the interval model on the direction of
    the ``base_config -> config`` CPI change.

    Returns a warning message when the two models disagree on the sign of
    a change both consider significant (``>= threshold`` relative), else
    ``None``.  Single-core only: the interval model has no notion of
    barriers or coherence, so multicore runs are not comparable.
    """
    from repro.uarch.interval import predict_cpi, workload_stats_from_sim

    measured_base = base_run.cycles / max(1, base_run.stats.uops)
    measured = run.cycles / max(1, run.stats.uops)
    workload = workload_stats_from_sim(base_run)
    predicted_base = predict_cpi(base_config, workload)
    predicted = predict_cpi(config, workload)
    measured_delta = measured / measured_base - 1.0
    predicted_delta = predicted / predicted_base - 1.0
    if abs(measured_delta) < threshold or abs(predicted_delta) < threshold:
        return None
    if (measured_delta > 0) == (predicted_delta > 0):
        return None
    return (
        f"{label}: cycle model says CPI "
        f"{'rose' if measured_delta > 0 else 'fell'} {measured_delta:+.1%} "
        f"from {base_config.name} to {config.name}, but the interval model "
        f"predicts {predicted_delta:+.1%} — one of them mismodels this "
        f"configuration delta"
    )


class ConfigNameClash(ValueError):
    """Two points of one evaluation resolve to the same config name.

    Runs are keyed by config name, so the evaluation could not tell the
    two apart; the caller named the points, so the caller renames one.
    """


@dataclasses.dataclass(frozen=True)
class _SuiteGroup:
    """One mode's suite sweep: its designs, the Base reference they are
    normalised to, and the spec list the engine runs for both."""

    designs: List[ResolvedDesign]
    baseline: ResolvedDesign
    profiles: List
    specs: List
    multicore: bool
    grid: int


class PendingPointEvaluation:
    """In-flight :func:`evaluate_points` batch (from :func:`submit_points`).

    The engine specs are already submitted to the worker pool; the
    power/thermal post-processing — cheap, parent-side — happens at
    :meth:`result` time.  This is what lets ``repro explore`` overlap
    chunk N's simulation with chunk N±1's expansion and store commits.

    ``resolved`` and ``groups`` are the resolved designs and their suite
    groups; :func:`submit_groups` submits the same groups again without
    resolving or planning anything.
    """

    def __init__(self, resolved: List[ResolvedDesign],
                 groups: List[_SuiteGroup], pending: List) -> None:
        self.resolved = resolved
        self.groups = groups
        self._pending = pending  # one repro.engine.sweep.PendingSpecs each
        self._final: Optional[List[PointEvaluation]] = None

    @property
    def done(self) -> bool:
        return self._final is not None

    def group_results(self) -> List[List[object]]:
        """Wait for the simulations; each group's engine results, in spec
        order (the same list objects on every call)."""
        return [pending.result() for pending in self._pending]

    def result(self) -> List[PointEvaluation]:
        """Wait for the simulations and assemble evaluations in point order."""
        if self._final is not None:
            return self._final
        evaluations: Dict[str, PointEvaluation] = {}
        for group, flat in zip(self.groups, self.group_results()):
            evaluations.update(_finish_group(group, flat))
        self._final = [
            evaluations[design.point.name] for design in self.resolved
        ]
        return self._final

    def abandon(self) -> None:
        """Drop the batch without waiting (releases its pool leases)."""
        for pending in self._pending:
            pending.abandon()


def submit_points(points: Sequence, *,
                  uops: int = 4000,
                  multicore_uops: Optional[int] = None,
                  seed: int = 1234,
                  grid: int = 8,
                  engine=None,
                  apps: Optional[int] = None) -> PendingPointEvaluation:
    """Start evaluating design points; return the in-flight batch.

    Point resolution, the config-name clash check (a
    :class:`ConfigNameClash`) and spec submission happen here on the
    calling thread; the suite sweeps run in the engine's worker pool
    until :meth:`PendingPointEvaluation.result` is called.
    ``evaluate_points(...)`` is exactly ``submit_points(...).result()`` —
    same specs, same order, same results.
    """
    multicore_uops = multicore_uops if multicore_uops is not None else 3 * uops
    resolved = [resolve(as_point(point)) for point in points]
    seen: Dict[str, str] = {}
    for design in resolved:
        clash = seen.get(design.config.name)
        if clash is not None and clash != design.point.name:
            raise ConfigNameClash(
                f"points {clash!r} and {design.point.name!r} both resolve to "
                f"config name {design.config.name!r}; rename one"
            )
        seen[design.config.name] = design.point.name

    groups: List[_SuiteGroup] = []
    for multicore in (False, True):
        designs = [
            d for d in resolved if (d.config.num_cores > 1) == multicore
        ]
        if designs:
            groups.append(
                _plan_group(
                    designs,
                    multicore=multicore,
                    uops=multicore_uops if multicore else uops,
                    seed=seed,
                    grid=grid,
                    apps=apps,
                )
            )
    return submit_groups(resolved, groups, engine=engine)


def submit_groups(resolved: List[ResolvedDesign], groups: List[_SuiteGroup],
                  engine=None) -> PendingPointEvaluation:
    """Submit each group's specs to the engine, one batch per group.

    ``resolved`` and ``groups`` come from an earlier batch
    (:attr:`PendingPointEvaluation.resolved` and ``.groups``): its specs
    are looked up, and run where missing, exactly as the first time.
    """
    from repro.engine.sweep import get_engine

    engine = engine if engine is not None else get_engine()
    pending: List = []
    try:
        for group in groups:
            pending.append(engine.submit_specs(group.specs))
    except BaseException:
        for submitted in pending:
            submitted.abandon()
        raise
    return PendingPointEvaluation(resolved, groups, pending)


def evaluate_points(points: Sequence, *,
                    uops: int = 4000,
                    multicore_uops: Optional[int] = None,
                    seed: int = 1234,
                    grid: int = 8,
                    engine=None,
                    apps: Optional[int] = None) -> List[PointEvaluation]:
    """Evaluate design points end-to-end through the experiment engine.

    ``points`` mixes registered names and :class:`DesignPoint` objects.
    ``uops`` is the measured trace length per single-core run;
    ``multicore_uops`` the total work per parallel run (default
    ``3 * uops``, matching the report's convention).  ``apps`` limits the
    suite to its first N applications (useful for quick sweeps/tests).
    """
    return submit_points(
        points, uops=uops, multicore_uops=multicore_uops, seed=seed,
        grid=grid, engine=engine, apps=apps,
    ).result()


def _plan_group(designs: List[ResolvedDesign], *, multicore: bool,
                uops: int, seed: int, grid: int,
                apps: Optional[int]) -> _SuiteGroup:
    from repro.engine.sweep import suite_specs
    from repro.workloads.parallel import parallel_profiles
    from repro.workloads.spec import spec_profiles

    if multicore:
        baseline = resolve(BASELINE_POINT,
                           num_cores=MULTICORE_BASELINE_CORES)
        profiles = parallel_profiles()
    else:
        baseline = resolve(BASELINE_POINT)
        profiles = spec_profiles()
    if apps is not None:
        profiles = profiles[:apps]

    configs = [baseline.config] + [
        design.config for design in designs
        if design.config != baseline.config
    ]
    # The exact spec list single_core_runs/multicore_runs would build —
    # same cache keys, same result order, bit-identical evaluations.
    specs = suite_specs("multicore" if multicore else "single",
                        uops, seed, configs, profiles)
    return _SuiteGroup(
        designs=designs, baseline=baseline, profiles=list(profiles),
        specs=specs, multicore=multicore, grid=grid,
    )


def _finish_group(group: _SuiteGroup,
                  flat: Sequence[object]) -> Dict[str, PointEvaluation]:
    """Evaluate a group's designs from its engine results (spec order)."""
    baseline = group.baseline
    multicore = group.multicore
    runs: Dict[str, Dict[str, object]] = {}
    for spec, result in zip(group.specs, flat):
        runs.setdefault(spec.profile.name, {})[spec.config.name] = result

    base_model = baseline.power_model()
    out: Dict[str, PointEvaluation] = {}
    for design in group.designs:
        model = design.power_model()
        names: List[str] = []
        cpi: List[float] = []
        speedup: List[float] = []
        energy: List[float] = []
        peak: List[float] = []
        cores = design.config.num_cores
        for profile in group.profiles:
            base_run = runs[profile.name][baseline.config.name]
            run = runs[profile.name][design.config.name]
            if multicore:
                base_report = base_model.evaluate_multicore(base_run)
                report = model.evaluate_multicore(run)
                # Normalise at equal total work (cf. figure10).
                scale = max(1, base_run.total_uops) / max(1, run.total_uops)
                core_power = report.average_power / cores
            else:
                base_report = base_model.evaluate(base_run)
                report = model.evaluate(run)
                scale = 1.0
                core_power = report.average_power
            if not multicore:
                message = interval_crosscheck(
                    design.config, baseline.config, run, base_run,
                    label=f"{design.point.name}/{profile.name}",
                )
                if message is not None:
                    warn_model_disagreement(message)
            names.append(profile.name)
            cpi.append(_effective_cpi(run, cores))
            speedup.append(run.speedup_over(base_run))
            energy.append(report.total * scale / base_report.total)
            peak.append(
                design.peak_temperature(core_power, profile,
                                        grid=group.grid).peak_c
            )
        out[design.point.name] = PointEvaluation(
            design=design, apps=names, cpi=cpi, speedup=speedup,
            energy=energy, peak_c=peak,
        )
    return out


def print_sweep_summary(evaluations: Sequence[PointEvaluation]) -> None:
    """One headline row per evaluated point."""
    print("\n=== Sweep summary ===")
    print("point".ljust(15) + f"{'GHz':>8}{'cpi':>10}{'speedup':>10}"
          f"{'energy':>10}{'max C':>10}")
    for ev in evaluations:
        row = ev.summary_row()
        print(ev.name.ljust(15)
              + f"{row['ghz']:8.2f}{row['cpi']:10.3f}{row['speedup']:10.3f}"
              + f"{row['energy']:10.3f}{row['peak_c']:10.2f}")


__all__ = [
    "BASELINE_POINT",
    "ConfigNameClash",
    "INTERVAL_CHECK_THRESHOLD",
    "MULTICORE_BASELINE_CORES",
    "PendingPointEvaluation",
    "PointEvaluation",
    "evaluate_points",
    "interval_crosscheck",
    "print_sweep_summary",
    "submit_groups",
    "submit_points",
]
