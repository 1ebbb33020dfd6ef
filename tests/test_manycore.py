"""Tests for the heterogeneous manycore layer: mesh NoC, tile grids,
manycore floorplanning/thermal, the scenario runner, and its CLI."""

import json

import pytest

from repro.design.grid import (
    GridError,
    TileGrid,
    load_grid,
    resolve_manycore,
)
from repro.uarch.noc import MAX_UTILISATION, MeshNoc, Noc, RingNoc


class TestMeshNoc:
    def test_single_tile_mesh(self):
        noc = MeshNoc(1, 1)
        assert noc.num_cores == 1
        assert noc.average_hops == 0.0
        assert noc.average_latency >= 1  # latency floor, even with no hops

    def test_hops_match_manhattan_mean(self):
        # 2x2: mean |dx| over {0,1} pairs is 0.5 per axis -> 1.0 total.
        assert MeshNoc(2, 2).average_hops == pytest.approx(1.0)
        # (R^2-1)/(3R) + (C^2-1)/(3C) for 4x4 = 2 * 15/12 = 2.5.
        assert MeshNoc(4, 4).average_hops == pytest.approx(2.5)

    def test_latency_grows_with_mesh_size(self):
        assert MeshNoc(4, 4).average_latency > MeshNoc(2, 2).average_latency

    def test_folded_tiles_shorten_links(self):
        folded = MeshNoc(4, 4, folded_tiles=True)
        flat = MeshNoc(4, 4)
        assert folded.link_cycles < flat.link_cycles
        assert folded.average_latency < flat.average_latency
        assert folded.link_energy_per_flit() < flat.link_energy_per_flit()

    def test_contention_monotonic_in_injection_rate(self):
        rates = [0.0, 0.1, 0.3, 0.6, 0.9]
        waits = [
            MeshNoc(4, 4, injection_rate=rate).contention_cycles
            for rate in rates
        ]
        assert waits[0] == 0.0
        assert all(a < b for a, b in zip(waits, waits[1:]))

    def test_utilisation_capped_below_saturation(self):
        # 8x8 at full injection offers rho > 1; the cap keeps the M/D/1
        # term finite.
        noc = MeshNoc(8, 8, injection_rate=1.0)
        assert noc.utilisation == MAX_UTILISATION
        assert noc.contention_cycles < float("inf")

    def test_rejects_bad_geometry_and_rates(self):
        with pytest.raises(ValueError):
            MeshNoc(0, 4)
        with pytest.raises(ValueError):
            MeshNoc(4, 0)
        with pytest.raises(ValueError):
            MeshNoc(2, 2, injection_rate=1.5)

    def test_satisfies_noc_protocol(self):
        assert isinstance(MeshNoc(2, 3), Noc)
        assert isinstance(RingNoc(4), Noc)

    def test_per_hop_energy_consistent_with_ring(self):
        # Same wire model: an unfolded mesh link costs exactly what an
        # unfolded ring link does, and folding halves both.
        assert MeshNoc(4, 4).link_energy_per_flit() == pytest.approx(
            RingNoc(4).link_energy_per_flit()
        )
        assert MeshNoc(4, 4, folded_tiles=True).link_energy_per_flit() \
            == pytest.approx(
                RingNoc(4, shared_stops=True).link_energy_per_flit()
            )


class TestTileGrid:
    def grid(self, **overrides):
        spec = dict(
            name="t", rows=2, cols=2,
            tiles=("Base", "M3D-Het", "M3D-Het", "Base"),
        )
        spec.update(overrides)
        return TileGrid(**spec)

    def test_round_trip(self):
        grid = self.grid(injection_rate=0.3, description="d")
        assert TileGrid.from_dict(grid.to_dict()) == grid

    def test_tile_count_must_match_dims(self):
        with pytest.raises(GridError, match="needs 4 tiles"):
            self.grid(tiles=("Base", "Base"))

    def test_rejects_bad_dims_and_rates(self):
        with pytest.raises(GridError):
            self.grid(rows=0)
        with pytest.raises(GridError):
            self.grid(injection_rate=2.0)
        with pytest.raises(GridError):
            TileGrid(name="", rows=1, cols=1, tiles=("Base",))

    def test_from_dict_rejects_unknown_fields(self):
        data = self.grid().to_dict()
        data["topology"] = "torus"
        with pytest.raises(GridError, match="unknown tile-grid field"):
            TileGrid.from_dict(data)

    def test_tile_names_first_appearance_order(self):
        assert self.grid().tile_names() == ["Base", "M3D-Het"]

    def test_unknown_tile_name_raises(self):
        grid = self.grid(tiles=("Base", "Base", "Base", "NoSuchTile"))
        with pytest.raises(GridError, match="neither registered nor"):
            grid.tile_point("NoSuchTile")

    def test_inline_point_beats_registry(self):
        inline = {
            "stack": "M3D", "top_layer_slowdown": 0.4,
            "partition": "asymmetric", "frequency_policy": "derived",
        }
        grid = self.grid(
            tiles=("Base", "Base", "Base", "Custom"),
            points={"Custom": inline},
        )
        point = grid.tile_point("Custom")
        assert point.name == "Custom"
        assert point.top_layer_slowdown == 0.4

    def test_load_grid_accepts_wrapped_object(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"grid": self.grid().to_dict()}))
        assert load_grid(path) == self.grid()

    def test_load_grid_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(GridError, match="not valid JSON"):
            load_grid(path)


class TestResolveManycore:
    def test_mixed_grid_is_not_folded(self):
        from repro.thermal.hotspot import manycore_temperatures

        grid = TileGrid(name="mix", rows=1, cols=2,
                        tiles=("Base", "M3D-Het"))
        resolved = resolve_manycore(grid)
        assert resolved.noc.folded_tiles is False
        assert len(resolved.tiles) == 2
        # One folded tile is enough for the chip to take the folded stack.
        stacks = [design.point.stack for design in resolved.designs]
        solution, _ = manycore_temperatures(stacks, [5.0, 5.0], grid=8)
        assert solution.stack_name == "M3D"

    def test_all_3d_grid_folds_automatically(self):
        grid = TileGrid(name="m3d", rows=1, cols=2,
                        tiles=("M3D-Het", "M3D-Het"))
        assert resolve_manycore(grid).noc.folded_tiles is True

    def test_explicit_folded_overrides_derivation(self):
        grid = TileGrid(name="m3d", rows=1, cols=2,
                        tiles=("M3D-Het", "M3D-Het"), folded_tiles=False)
        assert resolve_manycore(grid).noc.folded_tiles is False

    def test_tiles_resolve_single_core(self):
        # Multicore registry points (num_cores=4) still resolve to
        # one-core tiles.
        grid = TileGrid(name="b4", rows=1, cols=1, tiles=("Base-4C",))
        (config,) = resolve_manycore(grid).tiles
        assert config.num_cores == 1

    def test_noc_carries_grid_parameters(self):
        grid = TileGrid(name="g", rows=2, cols=3,
                        tiles=("Base",) * 6, injection_rate=0.4)
        noc = resolve_manycore(grid).noc
        assert (noc.rows, noc.cols) == (2, 3)
        assert noc.injection_rate == 0.4


class TestManycoreThermal:
    def test_grid_resolution_scales_with_mesh(self):
        from repro.thermal.hotspot import (
            MANYCORE_MAX_GRID,
            manycore_grid_resolution,
        )

        assert manycore_grid_resolution(12, 1, 1) == 12
        assert manycore_grid_resolution(12, 2, 2) == 24
        assert manycore_grid_resolution(12, 8, 8) == MANYCORE_MAX_GRID

    def test_floorplan_manycore_conserves_power(self):
        from repro.thermal.floorplan import floorplan_2d, floorplan_manycore

        plans = [floorplan_2d(3.0), floorplan_2d(5.0)]
        chip_plans, ranges = floorplan_manycore([[p] for p in plans], 1)
        (chip,) = chip_plans
        assert chip.total_power == pytest.approx(8.0)
        assert len(ranges[0]) == 2
        # Both tiles occupy disjoint, ordered block ranges.
        assert ranges[0][0][1] <= ranges[0][1][0]

    def test_manycore_temperatures_reads_per_tile_peaks(self):
        from repro.thermal.hotspot import manycore_temperatures

        solution, peaks = manycore_temperatures(
            ["2D", "M3D"], [4.0, 9.0], grid=16, name="t",
        )
        assert len(peaks) == 2
        assert all(peak >= solution.ambient_c for peak in peaks)
        assert max(peaks) == pytest.approx(solution.peak_c, abs=1e-6)


class TestEvaluateManycore:
    @pytest.mark.parametrize("apps", [0, -1])
    def test_app_count_below_one_rejected(self, apps):
        from repro.experiments.manycore import evaluate_manycore, get_scenario

        with pytest.raises(ValueError, match="apps must be at least 1"):
            evaluate_manycore(get_scenario("mixed-2x2"), total_uops=400,
                              apps=apps)

    @pytest.fixture(scope="class")
    def report(self):
        from repro.experiments.manycore import evaluate_manycore, get_scenario

        return evaluate_manycore(
            get_scenario("mixed-2x2"), total_uops=2000, base_grid=6, apps=2,
        )

    def test_shapes(self, report):
        assert report.apps == ["Barnes", "Blackscholes"]
        for app in report.apps:
            assert len(report.tile_energy[app]) == 4
            assert len(report.tile_peak_c[app]) == 4
            assert report.peak_c[app] >= max(report.tile_peak_c[app]) - 1e-6
            assert report.results[app].cycles > 0

    def test_payload_structure(self, report):
        payload = report.as_dict()
        assert payload["noc"]["topology"] == "mesh"
        assert len(payload["tiles"]) == 4
        for app in report.apps:
            block = payload["per_app"][app]
            assert len(block["tile_energy_nj"]) == 4
            assert len(block["thermal"]["tiles"]) == 4
        # Round-trips back to the same grid spec.
        assert TileGrid.from_dict(payload["spec"]) == report.grid

    def test_kernel_matches_oracle(self, report, monkeypatch):
        from repro.experiments import manycore

        def kernel_path(*args, **kwargs):
            raise AssertionError("REPRO_KERNEL=0 still ran the kernel")

        monkeypatch.setenv("REPRO_KERNEL", "0")
        monkeypatch.setattr(manycore, "evaluate_tiles", kernel_path)
        oracle = manycore.evaluate_manycore(
            manycore.get_scenario("mixed-2x2"), total_uops=2000, base_grid=6,
            apps=2,
        )
        for app in report.apps:
            assert report.results[app].cycles == oracle.results[app].cycles
            assert report.results[app].barrier_wait_cycles \
                == oracle.results[app].barrier_wait_cycles
            assert report.results[app].coherence_transfers \
                == oracle.results[app].coherence_transfers

    def test_hetero_tiles_get_weighted_work(self, report):
        # The 2x2 scenario mixes a 2D Base tile with faster M3D tiles:
        # the work split must favour the higher-bandwidth tiles.
        result = report.results["Barnes"]
        uops = [core.stats.uops for core in result.per_core]
        ghz = [c.frequency for c in report.resolved.tiles]
        fastest, slowest = ghz.index(max(ghz)), ghz.index(min(ghz))
        assert uops[fastest] > uops[slowest]
        assert sum(uops) == result.requested_uops

    def test_apps_limits_suite(self, report):
        assert len(report.apps) == 2

    def test_unknown_scenario(self):
        from repro.experiments.manycore import get_scenario

        with pytest.raises(KeyError, match="unknown manycore scenario"):
            get_scenario("no-such")


class TestManycoreGolden:
    def test_artifact_registered(self):
        from repro.golden import artifact_names, get_artifact

        assert "manycore" in artifact_names()
        assert not get_artifact("manycore").static

    def test_golden_committed_with_thermal_tolerance(self):
        from repro.golden import load_golden
        from repro.golden.policy import THERMAL_FLOAT, policy_for

        envelope = load_golden("manycore")
        assert envelope["artifact"] == "manycore"
        payload = envelope["payload"]
        assert payload["spec"]["name"] == "mixed-4x4"
        assert len(payload["tiles"]) == 16
        # Temperatures sit under per-app "thermal" blocks and get the
        # sparse-solver tolerance; the grid spec stays exact.
        path = ("per_app", "Barnes", "thermal", "tiles", "0", "peak_c")
        assert policy_for("manycore", path) is THERMAL_FLOAT
        assert policy_for("manycore", ("spec", "rows")).exact


class TestManycoreManifest:
    def test_record_round_trip(self):
        from repro.obs import (
            attach_section,
            build_manifest,
            run_record,
            validate_manifest,
        )

        summary = {
            "scenario": "mixed-2x2", "rows": 2, "cols": 2, "tiles": 4,
            "apps": 2, "folded_tiles": False, "injection_rate": 0.2,
            "noc_latency": 3, "contention_cycles": 0.08,
            "dropped_phases": 0, "max_peak_c": 91.5, "thermal_grid": 24,
            "seconds": 1.25,
        }
        with run_record() as record:
            attach_section("manycore", summary)
        assert record.sections["manycore"] == summary
        manifest = build_manifest("test", record)
        assert manifest["manycore"] == summary
        assert validate_manifest(manifest) == []

    def test_negative_counts_rejected(self):
        from repro.obs import RunRecord, build_manifest, validate_manifest

        record = RunRecord()
        record.sections["manycore"] = {"scenario": "x", "tiles": -1}
        problems = validate_manifest(build_manifest("test", record))
        assert any("tiles" in problem for problem in problems)


class TestManycoreCli:
    def test_scenario_run_records_summary(self, capsys, tmp_path):
        import json

        from repro import cli

        out_path = tmp_path / "manifest.json"
        cli.main(["--uops", "400", "--metrics-out", str(out_path),
                  "manycore", "mixed-2x2", "--apps", "1", "--grid", "6"])
        out = capsys.readouterr().out
        assert "manycore mixed-2x2: 2x2 mesh" in out
        assert "Barnes" in out
        summary = json.loads(out_path.read_text())["manycore"]
        assert summary["scenario"] == "mixed-2x2"
        assert summary["apps"] == 1
        assert summary["seconds"] > 0

    def test_grid_json_path(self, tmp_path, capsys):
        from repro import cli

        grid = TileGrid(name="pair", rows=1, cols=2,
                        tiles=("M3D-Het", "M3D-Het"))
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(grid.to_dict()))
        cli.main(["--uops", "400", "manycore", str(path),
                  "--apps", "1", "--grid", "6"])
        assert "manycore pair: 1x2 mesh" in capsys.readouterr().out

    def test_unknown_scenario_exits(self):
        from repro import cli

        with pytest.raises(SystemExit, match="unknown scenario"):
            cli.main(["manycore", "no-such-scenario"])

    def test_bad_grid_file_exits(self, tmp_path):
        from repro import cli

        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(SystemExit, match="cannot load grid"):
            cli.main(["manycore", str(path)])
