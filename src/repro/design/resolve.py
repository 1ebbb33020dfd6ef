"""Resolution: from a declarative :class:`DesignPoint` to runnable models.

``resolve(point)`` drives the paper's whole derivation pipeline from the
spec alone:

1. **stack** — build the :class:`~repro.tech.process.StackSpec` the point
   describes (via type, layer count, top-layer slowdown/flavour);
2. **partition** — plan every storage structure on that stack
   (:func:`repro.partition.planner.plan_core`, symmetric or asymmetric);
3. **frequency** — turn the plans into a
   :class:`~repro.core.frequency.FrequencyDerivation` under the point's
   frequency policy (Section 6.1), or pin to the paper's published
   reductions when ``use_paper_values`` is set;
4. **core config** — stamp out the :class:`~repro.core.configs.CoreConfig`
   (3D critical-path savings, widths, voltage, shared L2s) that the
   simulator, power model and thermal model consume.

The result is a :class:`ResolvedDesign`, which also knows how to build
the matching power model and evaluate peak temperature, so one object
carries a design point end-to-end through the evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Union

from repro.core import structures as structdefs
from repro.core.configs import CoreConfig
from repro.core.frequency import (
    BASE_FREQUENCY,
    FrequencyDerivation,
    apply_naive_loss,
    derive_from_plans,
    derive_from_reference,
)
from repro.core.reference import TABLE6_M3D, TABLE8_HETERO
from repro.design.point import DesignPoint
from repro.design.registry import (
    PAPER_MULTICORE,
    PAPER_SINGLE_CORE,
    get_point,
)
from repro.lru import LruMemo
from repro.partition.planner import plan_core
from repro.tech.process import (
    LayerSpec,
    StackSpec,
    stack_2d,
    stack_m3d_hetero,
    stack_m3d_iso,
    stack_m3d_lp_top,
    stack_tsv3d,
)
from repro.tech.transistor import ProcessFlavor
from repro.tech.via import make_tsv_aggressive

PointLike = Union[DesignPoint, str]


def as_point(point: PointLike) -> DesignPoint:
    """Accept a ``DesignPoint`` or a registered point name."""
    if isinstance(point, DesignPoint):
        return point
    return get_point(point)


# -- stack construction -------------------------------------------------------


def build_stack(point: PointLike) -> StackSpec:
    """The :class:`StackSpec` a point describes.

    Reuses the named constructors of :mod:`repro.tech.process` whenever
    the point matches one of the paper's stacks, so registry-resolved
    paper designs are bit-identical to the hand-wired originals.
    """
    point = as_point(point)
    if point.stack == "2D":
        return stack_2d()
    lp_top = point.top_layer_flavor == "LP"
    if point.stack == "M3D":
        if lp_top:
            return stack_m3d_lp_top(point.top_layer_slowdown)
        if point.top_layer_slowdown > 0.0:
            return stack_m3d_hetero(point.top_layer_slowdown)
        return stack_m3d_iso()
    # TSV3D: the paper only builds the iso variant; hetero/LP layers are
    # extension territory and need a bespoke spec.
    if point.top_layer_slowdown > 0.0 or lp_top:
        top = LayerSpec(
            "top",
            delay_penalty=point.top_layer_slowdown,
            flavor=ProcessFlavor.LP if lp_top else ProcessFlavor.HP,
        )
        return StackSpec(
            name="TSV3D-Het",
            layers=[LayerSpec("bottom"), top],
            via=make_tsv_aggressive(),
            die_stacked=True,
        )
    return stack_tsv3d()


# -- frequency derivation -----------------------------------------------------

#: Memo for plan-backed derivations: planning 12 structures per design is
#: pure but not free, and table/figure/sweep entry points re-derive the
#: same points many times per run.  Capped because a long-lived server
#: adds one entry per distinct ``/points`` frequency signature; the
#: paper registry plus the golden explore space need 42.
_FREQUENCY_MEMO = LruMemo(cap=256)

_REFERENCE_TABLES = {"table6": TABLE6_M3D, "table8": TABLE8_HETERO}


def _frequency_signature(point: DesignPoint, use_paper_values: bool) -> tuple:
    """The fields a point's frequency *numerically* depends on.

    The point's name is deliberately absent: the derivation's ``design``
    label is cosmetic, and keying the memo on it would defeat sharing
    across generated points (a ``repro explore`` space stamps thousands
    of identical-physics points with unique names; each ``plan_core``
    pass costs ~0.5 s).  :func:`derive_frequency` relabels the cached
    derivation when the names differ.
    """
    return (
        point.stack,
        point.top_layer_slowdown,
        point.top_layer_flavor,
        point.partition,
        point.frequency_policy,
        point.critical_only,
        point.naive_loss,
        point.fixed_frequency,
        point.frequency_note,
        point.paper_reference,
        use_paper_values,
    )


def derive_frequency(point: PointLike,
                     use_paper_values: Optional[bool] = None) -> FrequencyDerivation:
    """Derive a point's frequency under its frequency policy.

    ``use_paper_values=None`` defers to the point's own field; passing a
    bool overrides it (that is all the old per-function
    ``use_paper_values`` plumbing, collapsed into one argument).
    """
    point = as_point(point)
    upv = point.use_paper_values if use_paper_values is None else use_paper_values
    signature = _frequency_signature(point, upv)
    cached = _FREQUENCY_MEMO.get(
        signature, lambda: _derive_frequency_uncached(point, upv))
    if cached.design != point.display_name:
        # Same physics, different point name: reuse the derivation,
        # relabel the cosmetic ``design`` field.
        return dataclasses.replace(cached, design=point.display_name)
    return cached


def _derive_frequency_uncached(point: DesignPoint,
                               upv: bool) -> FrequencyDerivation:
    name = point.display_name
    policy = point.frequency_policy
    if policy == "base":
        return FrequencyDerivation(
            design=name,
            frequency=BASE_FREQUENCY,
            limiting_structure=point.frequency_note or "(kept at base frequency)",
            limiting_reduction=0.0,
        )
    if policy == "fixed":
        return FrequencyDerivation(
            design=name,
            frequency=point.fixed_frequency,
            limiting_structure=point.frequency_note or "(fixed frequency)",
            limiting_reduction=0.0,
        )
    if policy == "derived-naive":
        # Derive the iso-layer design's clock, then pay the published
        # loss for leaving the slow layer on the critical path.
        iso = derive_frequency(
            dataclasses.replace(
                point,
                top_layer_slowdown=0.0,
                top_layer_flavor="HP",
                partition="symmetric",
                frequency_policy="derived",
            ),
            use_paper_values=upv,
        )
        return apply_naive_loss(iso, design=name, loss=point.naive_loss)
    # policy == "derived"
    only = structdefs.FREQUENCY_CRITICAL if point.critical_only else None
    if upv and point.paper_reference is not None:
        return derive_from_reference(
            name, _REFERENCE_TABLES[point.paper_reference], only=only
        )
    plans = plan_core(
        structdefs.core_structures(),
        build_stack(point),
        asymmetric=point.partition == "asymmetric",
    )
    return derive_from_plans(name, plans, only=only)


# -- core configuration -------------------------------------------------------


def build_config(point: PointLike,
                 derivation: Optional[FrequencyDerivation] = None) -> CoreConfig:
    """The :class:`CoreConfig` for a point (Table 9 + the point's deltas)."""
    point = as_point(point)
    if derivation is None:
        derivation = derive_frequency(point)
    config = CoreConfig(
        name="Base",
        frequency=BASE_FREQUENCY,
        num_cores=point.num_cores,
        stack="2D",
    )
    if point.is_3d:
        # Section 6's common 3D critical-path savings: one load-to-use
        # cycle and two branch-misprediction cycles.
        config = dataclasses.replace(
            config,
            is_3d=True,
            load_to_use_cycles=config.load_to_use_cycles - 1,
            branch_mispredict_cycles=config.branch_mispredict_cycles - 2,
            stack=point.stack,
        )
    overrides: Dict[str, object] = {
        "name": point.display_name,
        "frequency": derivation.frequency,
        "hetero": point.hetero,
        "shared_l2": point.resolved_shared_l2(),
    }
    if point.vdd is not None:
        overrides["vdd"] = point.vdd
    if point.issue_width is not None:
        overrides["issue_width"] = point.issue_width
    if point.dispatch_width is not None:
        overrides["dispatch_width"] = point.dispatch_width
    if point.commit_width is not None:
        overrides["commit_width"] = point.commit_width
    return dataclasses.replace(config, **overrides)


# -- full resolution ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ResolvedDesign:
    """A design point resolved into every model the evaluation needs."""

    point: DesignPoint
    stack: StackSpec
    derivation: FrequencyDerivation
    config: CoreConfig

    @property
    def name(self) -> str:
        return self.point.name

    @property
    def display_name(self) -> str:
        return self.point.display_name

    def power_model(self):
        """The energy model for this design (honours ``power_stack``)."""
        from repro.power.core_power import power_model_for

        return power_model_for(self)

    def peak_temperature(self, core_power: float, profile=None, grid: int = 16):
        """Peak temperature at the given core power on the right stack."""
        from repro.thermal.hotspot import peak_temperature_for

        return peak_temperature_for(self, core_power, profile, grid=grid)


def resolve(point: PointLike,
            *,
            num_cores: Optional[int] = None,
            use_paper_values: Optional[bool] = None) -> ResolvedDesign:
    """Resolve a point (or registered name) end-to-end.

    ``num_cores`` and ``use_paper_values`` override the point's own
    fields — that is how the paper's single-core points serve as their
    multicore variants.
    """
    point = as_point(point)
    if num_cores is not None and num_cores != point.num_cores:
        point = dataclasses.replace(point, num_cores=num_cores)
    if use_paper_values is not None \
            and use_paper_values != point.use_paper_values:
        point = dataclasses.replace(point, use_paper_values=use_paper_values)
    derivation = derive_frequency(point)
    return ResolvedDesign(
        point=point,
        stack=build_stack(point),
        derivation=derivation,
        config=build_config(point, derivation),
    )


def design_space_snapshot() -> Dict[str, dict]:
    """Every registered point, spec plus fully resolved, as JSON data.

    This is the ``points`` golden artifact: the declarative spec pins
    the design space itself, the resolved view (derived clock, limiter,
    concrete :class:`CoreConfig`) pins the whole resolution pipeline —
    stack construction, partition planning, frequency policy and config
    stamping — without running a single simulation.
    """
    from repro.design.registry import registered_points

    snapshot: Dict[str, dict] = {}
    for point in registered_points():
        design = resolve(point)
        snapshot[point.name] = {
            "spec": point.to_dict(),
            "resolved": {
                "ghz": design.derivation.ghz,
                "limiting_structure": design.derivation.limiting_structure,
                "limiting_reduction": design.derivation.limiting_reduction,
                "stack": design.stack.name,
                "config": dataclasses.asdict(design.config),
            },
        }
    return snapshot


# -- the paper lineups, registry-resolved -------------------------------------


def paper_single_core_configs() -> List[CoreConfig]:
    """The six single-core designs of Figures 6-8, in figure order."""
    return [resolve(name).config for name in PAPER_SINGLE_CORE]


def paper_multicore_configs() -> List[CoreConfig]:
    """The five multicore designs of Figures 9-10, in figure order."""
    return [resolve(name).config for name in PAPER_MULTICORE]
