"""Tests for the declarative design-space layer (repro.design)."""

import dataclasses
import json

import pytest

from repro.core import reference
from repro.design import (
    DesignPoint,
    PAPER_MULTICORE,
    PAPER_SINGLE_CORE,
    TABLE11_ORDER,
    derive_frequency,
    evaluate_points,
    get_point,
    load_points,
    paper_multicore_configs,
    paper_single_core_configs,
    point_names,
    register,
    registered_points,
    resolve,
    unregister,
)
from repro.golden.policy import TABLE11_MODEL_RTOL, TABLE11_PAPER_PINNED_RTOL


class TestDesignPoint:
    def test_defaults_are_the_2d_base(self):
        point = DesignPoint(name="X", frequency_policy="base")
        assert point.stack == "2D"
        assert not point.is_3d
        assert not point.hetero
        assert point.display_name == "X"

    def test_config_name_overrides_display(self):
        point = DesignPoint(name="X-4C", config_name="X",
                            frequency_policy="base", num_cores=4)
        assert point.display_name == "X"

    def test_hetero_requires_3d_and_a_slow_or_lp_layer(self):
        iso = DesignPoint(name="iso", stack="M3D")
        het = dataclasses.replace(iso, name="het", top_layer_slowdown=0.17)
        lp = dataclasses.replace(iso, name="lp", top_layer_flavor="LP")
        assert not iso.hetero
        assert het.hetero and lp.hetero

    def test_shared_l2_multicore_tracks_core_count(self):
        point = DesignPoint(name="X", stack="M3D", shared_l2="multicore")
        assert not point.resolved_shared_l2()
        four = dataclasses.replace(point, num_cores=4)
        assert four.resolved_shared_l2()

    @pytest.mark.parametrize("bad", [
        dict(stack="5D"),
        dict(partition="diagonal"),
        dict(frequency_policy="guess"),
        dict(top_layer_flavor="XP"),
        dict(stack="M3D", top_layer_slowdown=1.2),
        dict(stack="M3D", naive_loss=-0.1),
        dict(frequency_policy="fixed"),  # no fixed_frequency
        dict(stack="2D", frequency_policy="derived"),
        dict(stack="M3D", num_cores=0),
        dict(stack="M3D", vdd=-0.8),
        dict(stack="M3D", shared_l2="sometimes"),
        dict(stack="M3D", paper_reference="table99"),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            DesignPoint(name="bad", **bad)

    def test_round_trips_through_dict(self):
        point = get_point("M3D-Het")
        again = DesignPoint.from_dict(point.to_dict())
        assert again == point

    def test_to_dict_is_asdict_for_every_registered_point(self):
        for point in registered_points():
            assert list(point.to_dict().items()) \
                == list(dataclasses.asdict(point).items())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown design-point field"):
            DesignPoint.from_dict({"name": "X", "stak": "M3D"})

    def test_load_points_json_variants(self, tmp_path):
        spec = {"name": "J1", "stack": "M3D", "top_layer_slowdown": 0.4,
                "partition": "asymmetric"}
        single = tmp_path / "one.json"
        single.write_text(json.dumps(spec))
        wrapped = tmp_path / "many.json"
        wrapped.write_text(json.dumps({"points": [spec, dict(spec, name="J2")]}))
        assert [p.name for p in load_points(single)] == ["J1"]
        assert [p.name for p in load_points(wrapped)] == ["J1", "J2"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps("nope"))
        with pytest.raises(ValueError):
            load_points(bad)


class TestRegistry:
    def test_paper_lineups_are_registered(self):
        names = set(point_names())
        assert set(PAPER_SINGLE_CORE) <= names
        assert set(PAPER_MULTICORE) <= names

    def test_unknown_point_error_lists_known_names(self):
        with pytest.raises(KeyError, match="M3D-Het"):
            get_point("M3D-Missing")

    def test_groups_filter(self):
        for point in registered_points("extension"):
            assert point.group == "extension"
        assert len(list(registered_points("extension"))) >= 4

    def test_register_and_unregister(self):
        point = DesignPoint(name="TmpPoint", stack="M3D")
        register(point)
        try:
            with pytest.raises(ValueError):
                register(point)  # duplicate without replace
            register(dataclasses.replace(point, description="x"), replace=True)
            assert get_point("TmpPoint").description == "x"
        finally:
            unregister("TmpPoint")
        with pytest.raises(KeyError):
            get_point("TmpPoint")


class TestResolveMatchesRetiredWiring:
    """The registry resolves to exactly what the hand-wired configs built."""

    def test_paper_lineups_in_figure_order(self):
        assert [c.name for c in paper_single_core_configs()] == list(PAPER_SINGLE_CORE)
        lineup = paper_multicore_configs()
        assert [c.num_cores for c in lineup] == [4, 4, 4, 4, 8]
        assert lineup[3] == resolve("M3D-Het-W").config

    def test_multicore_variant_shares_single_core_frequency(self):
        assert resolve("M3D-Het-4C").config.frequency == pytest.approx(
            resolve("M3D-Het").config.frequency
        )

    def test_use_paper_values_override_dedupes_plumbing(self):
        modeled = derive_frequency("M3D-Iso")
        pinned = derive_frequency("M3D-Iso", use_paper_values=True)
        assert pinned.frequency != modeled.frequency
        # The same override flows through full resolution.
        assert resolve("M3D-Iso", use_paper_values=True).config.frequency \
            == pytest.approx(pinned.frequency)


class TestFrequencyMemo:
    """The derivation memo is capped: a long-lived server adds one entry
    per distinct ``/points`` frequency signature."""

    def test_cap_evicts_oldest_and_rebuilds_it(self, monkeypatch):
        import importlib

        from repro.lru import LruMemo

        # The package re-exports a ``resolve`` function over the module.
        resolve_module = importlib.import_module("repro.design.resolve")
        cap = resolve_module._FREQUENCY_MEMO.cap
        assert cap == 256
        memo = LruMemo(cap=cap)
        monkeypatch.setattr(resolve_module, "_FREQUENCY_MEMO", memo)
        real = resolve_module._derive_frequency_uncached
        builds = []

        def counting(point, upv):
            builds.append(point.fixed_frequency)
            return real(point, upv)

        monkeypatch.setattr(resolve_module, "_derive_frequency_uncached",
                            counting)
        points = [
            dataclasses.replace(get_point("Base"), name=f"fixed-{i}",
                                config_name=None, frequency_policy="fixed",
                                fixed_frequency=2.0e9 + i)
            for i in range(cap + 1)
        ]
        for point in points:
            derive_frequency(point)
        assert len(memo) == cap and len(builds) == cap + 1
        # The oldest signature was evicted: deriving it again rebuilds.
        oldest = derive_frequency(points[0])
        assert len(builds) == cap + 2
        assert oldest.frequency == points[0].fixed_frequency
        assert len(memo) == cap
        # The newest is still cached, and a renamed twin is relabelled.
        twin = dataclasses.replace(points[-1], name="twin")
        assert derive_frequency(twin).design == "twin"
        assert len(builds) == cap + 2


class TestTable11Golden:
    """Golden pins: derived paper-config clocks vs published Table 11.

    The tolerances live in :mod:`repro.golden.policy` — one source for
    this suite, ``repro validate`` and the docs.
    """

    @pytest.mark.parametrize("name", TABLE11_ORDER)
    def test_derived_frequency_matches_published(self, name):
        published = reference.TABLE11_FREQUENCIES[name]
        assert derive_frequency(name).ghz == pytest.approx(
            published, rel=TABLE11_MODEL_RTOL
        )

    @pytest.mark.parametrize("name", ["M3D-Iso", "M3D-Het"])
    def test_paper_value_mode_is_tighter(self, name):
        published = reference.TABLE11_FREQUENCIES[name]
        pinned = derive_frequency(name, use_paper_values=True)
        assert pinned.ghz == pytest.approx(
            published, rel=TABLE11_PAPER_PINNED_RTOL
        )

    def test_base_designs_stay_at_base(self):
        for name in ("Base", "TSV3D"):
            assert derive_frequency(name).ghz == pytest.approx(3.30)


class TestSweepEvaluation:
    def test_extension_point_end_to_end(self):
        [evaluation] = evaluate_points(["M3D-Het50"], uops=300, apps=3, grid=6)
        assert evaluation.name == "M3D-Het50"
        assert len(evaluation.apps) == 3
        assert evaluation.ghz > 3.0
        assert all(s > 0 for s in evaluation.speedup)
        assert all(e > 0 for e in evaluation.energy)
        assert all(t > 40.0 for t in evaluation.peak_c)
        row = evaluation.summary_row()
        assert set(row) == {"ghz", "cpi", "speedup", "energy", "peak_c"}

    def test_custom_point_needs_no_registration(self):
        point = DesignPoint(
            name="M3D-Het40", stack="M3D", top_layer_slowdown=0.40,
            partition="asymmetric",
        )
        [evaluation] = evaluate_points([point], uops=300, apps=2, grid=6)
        assert evaluation.display_name == "M3D-Het40"
        # A 40% slowdown cannot clock faster than the paper's 17% design.
        assert evaluation.ghz <= resolve("M3D-Het").derivation.ghz + 1e-9

    def test_single_and_multicore_mix(self):
        results = evaluate_points(["M3D-Het50", "M3D-Het-4C"],
                                  uops=300, apps=2, grid=6)
        assert [ev.name for ev in results] == ["M3D-Het50", "M3D-Het-4C"]
        assert results[1].design.config.num_cores == 4
        # The 4-core point is judged against the 4-core Base.
        assert all(s > 0.5 for s in results[1].speedup)

    def test_config_name_clash_rejected(self):
        clash = DesignPoint(name="Other", config_name="M3D-Het50",
                            stack="M3D", top_layer_slowdown=0.5,
                            partition="asymmetric")
        with pytest.raises(ValueError, match="both resolve"):
            evaluate_points(["M3D-Het50", clash], uops=200, apps=1)
