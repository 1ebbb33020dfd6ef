"""Tests for the per-structure partition planner (Tables 6 and 8)."""

import pytest

from repro.core.frequency import derive_from_plans
from repro.core.structures import core_structures, structures_by_name
from repro.partition.planner import (
    canonical_strategy,
    evaluate_strategies,
    plan_core,
    plan_structure,
)
from repro.tech.process import stack_m3d_hetero, stack_m3d_iso, stack_tsv3d


@pytest.fixture(scope="module")
def iso_plans():
    return plan_core(core_structures(), stack_m3d_iso())


@pytest.fixture(scope="module")
def hetero_plans():
    return plan_core(core_structures(), stack_m3d_hetero(), asymmetric=True)


@pytest.fixture(scope="module")
def tsv_plans():
    return plan_core(core_structures(), stack_tsv3d())


class TestIsoPlans:
    def test_all_structures_planned(self, iso_plans):
        assert len(iso_plans) == 12

    def test_pp_wins_multiported(self, iso_plans):
        # Table 6: PP is the best design for multiported structures.
        by_name = {plan.geometry.name: plan for plan in iso_plans}
        for name in ("RF", "IQ", "SQ", "LQ", "RAT"):
            assert by_name[name].strategy == "PP", name

    def test_bp_or_wp_for_single_ported(self, iso_plans):
        by_name = {plan.geometry.name: plan for plan in iso_plans}
        for name in ("BPT", "BTB", "DTLB", "ITLB", "IL1", "DL1", "L2"):
            assert by_name[name].strategy in ("BP", "WP"), name

    def test_all_m3d_latency_reductions_positive(self, iso_plans):
        for plan in iso_plans:
            assert plan.best_report.latency_pct > 0, plan.geometry.name

    def test_all_m3d_footprint_reductions_substantial(self, iso_plans):
        for plan in iso_plans:
            assert plan.best_report.footprint_pct > 15, plan.geometry.name

    def test_limiting_reduction_sets_frequency(self, iso_plans):
        # Section 6.1: the limiter is ~14% -> ~3.83 GHz.
        reduction = derive_from_plans("iso", iso_plans).limiting_reduction
        assert 0.08 < reduction < 0.20

    def test_candidates_recorded(self, iso_plans):
        rf = next(p for p in iso_plans if p.geometry.name == "RF")
        assert set(rf.candidates) == {"BP", "WP", "PP"}

    def test_single_ported_skip_pp(self, iso_plans):
        bpt = next(p for p in iso_plans if p.geometry.name == "BPT")
        assert "PP" not in bpt.candidates


class TestHeteroPlans:
    def test_hetero_close_to_iso(self, iso_plans, hetero_plans):
        # Table 8 vs Table 6: "the numbers are only slightly lower".
        iso_by = {p.geometry.name: p for p in iso_plans}
        het_by = {p.geometry.name: p for p in hetero_plans}
        for name in iso_by:
            gap = (
                iso_by[name].best_report.latency_pct
                - het_by[name].best_report.latency_pct
            )
            assert gap < 10.0, name

    def test_hetero_still_positive(self, hetero_plans):
        for plan in hetero_plans:
            assert plan.best_report.latency_pct > 0, plan.geometry.name

    def test_min_reduction_slightly_below_iso(self, iso_plans, hetero_plans):
        het = derive_from_plans("het", hetero_plans).limiting_reduction
        iso = derive_from_plans("iso", iso_plans).limiting_reduction
        assert het <= iso + 0.01


class TestTsvPlans:
    def test_never_port_partitioning(self, tsv_plans):
        # Table 6: "TSV3D ... is not compatible with PP."
        for plan in tsv_plans:
            assert plan.strategy != "PP", plan.geometry.name

    def test_tsv_weaker_than_m3d(self, iso_plans, tsv_plans):
        iso_by = {p.geometry.name: p for p in iso_plans}
        tsv_by = {p.geometry.name: p for p in tsv_plans}
        weaker = sum(
            1
            for name in iso_by
            if tsv_by[name].best_report.latency_pct
            <= iso_by[name].best_report.latency_pct + 1e-9
        )
        assert weaker >= 10  # nearly everywhere

    def test_tsv_has_regressions(self, tsv_plans):
        # Table 6's TSV column contains negative entries (SQ, BTB...).
        worst = min(plan.best_report.latency_pct for plan in tsv_plans)
        assert worst < 5.0


class TestPlannerMechanics:
    def test_canonical_strategy_strips_asym(self):
        assert canonical_strategy("AsymBP") == "BP"
        assert canonical_strategy("PP") == "PP"

    def test_plan_structure_matches_plan_core(self, iso_plans):
        rf_plan = plan_structure(structures_by_name()["RF"], stack_m3d_iso())
        core_rf = next(p for p in iso_plans if p.geometry.name == "RF")
        assert rf_plan.strategy == core_rf.strategy

    def test_min_reduction_excludes(self, iso_plans):
        full = derive_from_plans("iso", iso_plans).limiting_reduction
        limiter = min(iso_plans, key=lambda p: p.best_report.latency_pct)
        others = [p.geometry.name for p in iso_plans if p is not limiter]
        without = derive_from_plans(
            "iso", iso_plans, only=others
        ).limiting_reduction
        assert without >= full

    def test_min_reduction_empty_raises(self):
        with pytest.raises(ValueError):
            derive_from_plans("none", [])

    def test_evaluate_strategies_keys(self):
        strategies = evaluate_strategies(
            structures_by_name()["RF"], stack_m3d_iso()
        )
        assert set(strategies) == {"BP", "WP", "PP"}
