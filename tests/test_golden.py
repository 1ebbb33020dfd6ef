"""repro.golden: canonical snapshots, tolerance drift, ``repro validate``.

Runs only against the cheap static artifacts (table1/table2) so the
suite never simulates; the committed goldens under ``goldens/`` are
exercised read-only, everything writable happens in ``tmp_path``.
"""

import json
import shutil

import pytest

from repro.cli import main as cli_main
from repro.golden import (
    EXACT,
    MODEL_FLOAT,
    THERMAL_FLOAT,
    BuildParams,
    GoldenError,
    Tolerance,
    artifact_names,
    canonical,
    canonical_dumps,
    compare_payloads,
    get_artifact,
    golden_path,
    load_golden,
    policy_for,
    run_validation,
    write_golden,
)
from repro.obs import (
    RunRecord,
    build_manifest,
    run_record,
    validate_manifest,
)


@pytest.fixture
def goldens(tmp_path):
    """A tmp goldens dir pre-blessed with the cheap table1 artifact."""
    params = BuildParams()
    write_golden("table1", get_artifact("table1").build(params),
                 params=params.as_dict(), goldens_dir=tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


class TestSerialize:
    def test_round_trip_is_byte_stable(self, tmp_path):
        payload = {
            "b": [1, 2.5, {"z": -0.1, "a": True}],
            "a": {"nested": [None, "text"]},
            "nan": float("nan"),
            "inf": float("inf"),
        }
        first = write_golden("x", payload, goldens_dir=tmp_path).read_bytes()
        reloaded = load_golden("x", tmp_path)
        second = write_golden("x", reloaded["payload"],
                              goldens_dir=tmp_path).read_bytes()
        assert first == second

    def test_nonfinite_floats_are_tagged_not_dropped(self):
        text = canonical_dumps({"v": float("nan"), "w": float("-inf")})
        data = json.loads(text)  # must be strict JSON (allow_nan=False)
        assert data["v"] == {"__nonfinite__": "nan"}
        assert data["w"] == {"__nonfinite__": "-inf"}

    def test_keys_are_sorted(self):
        assert canonical_dumps({"b": 1, "a": 2}).index('"a"') \
            < canonical_dumps({"b": 1, "a": 2}).index('"b"')

    def test_tuples_and_dataclasses_flatten(self):
        import dataclasses

        @dataclasses.dataclass
        class Cell:
            x: int

        assert canonical((1, 2)) == [1, 2]
        assert canonical(Cell(3)) == {"x": 3}


# ---------------------------------------------------------------------------
# Tolerance policy
# ---------------------------------------------------------------------------


class TestTolerance:
    def test_exact_is_exact(self):
        assert EXACT.matches(1.0, 1.0)
        assert not EXACT.matches(1.0, 1.0 + 1e-15)

    def test_zero_denominator_falls_back_to_atol(self):
        # rtol alone is useless around zero; atol must carry it.
        assert MODEL_FLOAT.matches(0.0, 5e-10)
        assert not MODEL_FLOAT.matches(0.0, 5e-9)
        assert not Tolerance(rtol=0.5).matches(0.0, 1e-12)

    def test_nan_semantics(self):
        nan = float("nan")
        assert MODEL_FLOAT.matches(nan, nan)
        assert not MODEL_FLOAT.matches(nan, 1.0)
        assert not MODEL_FLOAT.matches(1.0, nan)

    def test_infinities_compare_exactly(self):
        inf = float("inf")
        assert MODEL_FLOAT.matches(inf, inf)
        assert not MODEL_FLOAT.matches(inf, -inf)
        assert not MODEL_FLOAT.matches(inf, 1e300)

    def test_policy_routes_subtrees(self):
        assert policy_for("table11", ("rows", "M3D-Iso", "paper", "ghz")) \
            is EXACT
        assert policy_for("points", ("points", "m3d_iso", "spec", "vdd")) \
            is EXACT
        assert policy_for("figure7", ("series", "M3D-Het", "Astar")) \
            is MODEL_FLOAT
        assert policy_for("table11", ("rows", "M3D-Iso", "model", "peak_c")) \
            is THERMAL_FLOAT
        assert policy_for("figure8", ("series", "M3D-Het", "Astar")) \
            is THERMAL_FLOAT


# ---------------------------------------------------------------------------
# Comparison engine: structured drift, never a crash
# ---------------------------------------------------------------------------


class TestCompare:
    PAYLOAD = {
        "rows": {"A": {"model": {"x": 1.0, "y": float("nan")}}},
        "list": [1, 2, 3],
    }

    def test_identical_payloads_are_clean(self):
        result = compare_payloads("t", self.PAYLOAD, self.PAYLOAD)
        assert result.clean and result.cells > 0

    def test_golden_from_disk_equals_in_memory(self, tmp_path):
        write_golden("t", self.PAYLOAD, goldens_dir=tmp_path)
        envelope = load_golden("t", tmp_path)
        assert compare_payloads("t", envelope["payload"],
                                canonical(self.PAYLOAD)).clean

    def test_missing_and_extra_keys_flagged_not_crashed(self):
        result = compare_payloads("t", {"a": 1, "b": 2}, {"a": 1, "c": 3})
        kinds = {d.path: d.kind for d in result.drifts}
        assert kinds == {"b": "missing", "c": "extra"}

    def test_type_change_is_a_drift(self):
        result = compare_payloads("t", {"a": "text"}, {"a": {"now": "dict"}})
        assert [d.kind for d in result.drifts] == ["type"]

    def test_length_change_is_a_drift(self):
        result = compare_payloads("t", {"a": [1, 2, 3]}, {"a": [1, 2]})
        assert any(d.kind == "length" for d in result.drifts)

    def test_value_drift_names_the_cell(self):
        result = compare_payloads(
            "t", {"rows": {"A": {"model": {"x": 1.0}}}},
            {"rows": {"A": {"model": {"x": 1.1}}}},
        )
        (drift,) = result.drifts
        assert drift.path == "rows/A/model/x"
        assert drift.kind == "value"
        assert "rows/A/model/x" in drift.message

    def test_nan_against_number_drifts(self):
        result = compare_payloads("t", {"x": float("nan")}, {"x": 1.0})
        assert [d.kind for d in result.drifts] == ["value"]

    def test_drift_records_are_json_safe(self):
        result = compare_payloads(
            "t", {"x": float("inf"), "o": [1]}, {"x": 2.0, "o": "s"},
        )
        json.dumps([d.as_record() for d in result.drifts], allow_nan=False)


# ---------------------------------------------------------------------------
# Golden store
# ---------------------------------------------------------------------------


class TestStore:
    def test_missing_golden_suggests_update(self, tmp_path):
        with pytest.raises(GoldenError, match="--update --only table5"):
            load_golden("table5", tmp_path)

    def test_corrupt_json(self, tmp_path):
        golden_path("t", tmp_path).write_text("{not json")
        with pytest.raises(GoldenError, match="corrupt"):
            load_golden("t", tmp_path)

    def test_wrong_schema_and_wrong_artifact(self, tmp_path):
        write_golden("t", {"a": 1}, goldens_dir=tmp_path)
        path = golden_path("t", tmp_path)
        envelope = json.loads(path.read_text())
        envelope["schema"] = "repro-golden-v999"
        path.write_text(json.dumps(envelope))
        with pytest.raises(GoldenError, match="schema"):
            load_golden("t", tmp_path)
        envelope["schema"] = "repro-golden-v1"
        path.write_text(json.dumps(envelope))
        # Same file under the wrong requested name:
        path.rename(golden_path("other", tmp_path))
        with pytest.raises(GoldenError, match="tagged for artifact"):
            load_golden("other", tmp_path)


# ---------------------------------------------------------------------------
# run_validation
# ---------------------------------------------------------------------------


class TestRunValidation:
    def test_update_regenerates_only_requested(self, tmp_path):
        run_validation(only=["table1"], update=True, goldens_dir=tmp_path)
        written = sorted(p.name for p in tmp_path.glob("*.json"))
        assert written == ["table1.json"]

    def test_clean_pass_on_blessed_goldens(self, goldens):
        report = run_validation(only=["table1"], goldens_dir=goldens)
        assert report["status"] == "pass"
        assert report["summary"]["drifted_cells"] == 0

    def test_missing_golden_is_an_error_not_a_crash(self, goldens):
        report = run_validation(only=["table1", "table2"],
                                goldens_dir=goldens)
        assert report["status"] == "fail"
        assert report["summary"]["errors"] == ["table2"]

    def test_corrupt_golden_is_an_error_not_a_crash(self, goldens):
        golden_path("table1", goldens).write_text("{broken")
        report = run_validation(only=["table1"], goldens_dir=goldens)
        assert report["status"] == "fail"
        (entry,) = report["artifacts"]
        assert entry["status"] == "error" and "corrupt" in entry["error"]

    def test_mutated_constant_fails_naming_the_cell(self, goldens,
                                                    monkeypatch):
        from repro.tech import constants

        monkeypatch.setattr(constants, "MIV_SIDE", constants.MIV_SIDE * 1.05)
        report = run_validation(only=["table1"], goldens_dir=goldens)
        assert report["status"] == "fail"
        paths = [d["path"] for e in report["artifacts"] for d in e["drifts"]]
        assert paths and all(p.startswith("rows/MIV/model/") for p in paths)

    def test_report_path_written(self, goldens, tmp_path):
        out = tmp_path / "drift.json"
        run_validation(only=["table1"], goldens_dir=goldens, report_path=out)
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-drift-v1"
        assert report["status"] == "pass"

    def test_manifest_embeds_drift_report(self, goldens):
        from repro.engine.sweep import ExperimentEngine

        with run_record() as record:
            report = run_validation(only=["table1"], goldens_dir=goldens)
        assert record.sections["validation"] is report
        manifest = build_manifest(
            "unit-test", record,
            engine=ExperimentEngine(jobs=1, cache_dir=None),
        )
        assert manifest["validation"]["status"] == "pass"
        assert validate_manifest(manifest) == []

    def test_manifest_rejects_malformed_validation_section(self):
        from repro.engine.sweep import ExperimentEngine

        manifest = build_manifest(
            "unit-test", RunRecord(),
            engine=ExperimentEngine(jobs=1, cache_dir=None),
        )
        manifest["validation"] = {"status": "maybe"}
        assert validate_manifest(manifest) != []

    def test_registry_covers_the_paper(self):
        # The paper's tables and figures in report order, then the rest.
        assert artifact_names() == [
            "table1", "table2", "figure2", "table3", "table4", "table5",
            "table6", "table8", "table11", "figure6", "figure7", "figure8",
            "figure9", "figure10", "points", "traces", "explore",
            "manycore",
        ]

    def test_update_never_blesses_a_failing_oracle(self, tmp_path,
                                                   monkeypatch, capsys):
        from repro.golden import oracles

        goldens = tmp_path / "goldens"
        shutil.copytree(golden_path("oracles").parent, goldens)
        before = golden_path("oracles", goldens).read_bytes()
        monkeypatch.setattr(oracles, "ORACLES", {
            "kernel_cpi": lambda: ({"exact": False}, ["kernel_cpi: planted"]),
        })
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["validate", "--update", "--deep", "--only", "table1",
                      "--goldens", str(goldens)])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "ORACLE FAILURE: kernel_cpi: planted" in out
        assert "status: FAIL" in out
        assert golden_path("oracles", goldens).read_bytes() == before


# ---------------------------------------------------------------------------
# CLI: repro validate + the convenience-spelling tokenizer
# ---------------------------------------------------------------------------


class TestValidateCLI:
    def test_unknown_artifact_exits_with_message(self, goldens):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["validate", "--only", "figure99",
                      "--goldens", str(goldens)])
        assert "unknown golden artifact 'figure99'" in str(excinfo.value)

    def test_only_figure6_is_not_retokenized(self, goldens, capsys):
        # The old expansion turned "--only figure6" into "--only figure 6"
        # (an argparse error).  Now it reaches validation: figure6 has no
        # golden in this dir, so we get a clean exit-1 drift failure that
        # names it.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["validate", "--only", "figure6",
                      "--goldens", str(goldens)])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "figure6" in out and "ERROR" in out

    def test_convenience_spellings_still_expand(self, capsys):
        cli_main(["table11"])
        assert "Table 11" in capsys.readouterr().out
        cli_main(["figure2"])
        assert "Figure 2" in capsys.readouterr().out

    def test_update_then_validate_round_trip(self, tmp_path, capsys):
        cli_main(["validate", "--update", "--only", "table1",
                  "--goldens", str(tmp_path)])
        cli_main(["validate", "--only", "table1", "--goldens",
                  str(tmp_path)])
        out = capsys.readouterr().out
        assert "status: PASS" in out

    def test_corrupt_golden_fails_via_cli(self, goldens, capsys):
        golden_path("table1", goldens).write_text("{broken")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["validate", "--only", "table1",
                      "--goldens", str(goldens)])
        assert excinfo.value.code == 1
        assert "corrupt" in capsys.readouterr().out

    def test_manifest_written_even_on_drift(self, goldens, tmp_path):
        golden_path("table1", goldens).write_text("{broken")
        manifest_path = tmp_path / "m.json"
        with pytest.raises(SystemExit):
            cli_main(["validate", "--only", "table1",
                      "--goldens", str(goldens),
                      "--metrics-out", str(manifest_path)])
        manifest = json.loads(manifest_path.read_text())
        assert manifest["validation"]["status"] == "fail"
        assert validate_manifest(manifest) == []


# ---------------------------------------------------------------------------
# The committed goldens themselves
# ---------------------------------------------------------------------------


class TestCommittedGoldens:
    """Cheap checks against goldens/ — structure only, no simulation."""

    def test_every_artifact_has_a_committed_golden(self):
        for name in artifact_names():
            envelope = load_golden(name)
            assert envelope["artifact"] == name

    def test_static_goldens_match_live_models(self):
        # The static artifacts (analytic tables, design points, trace
        # digests) rebuild in milliseconds; drift here means a model
        # changed without `repro validate --update`.
        report = run_validation(
            only=["table1", "table2", "table11", "points", "traces"]
        )
        assert report["status"] == "pass", report["summary"]

    def test_oracle_baseline_pins_known_disagreements(self):
        payload = load_golden("oracles")["payload"]
        assert payload["kernel_cpi"]["exact"] is True
        assert payload["kernel_cpi"]["max_cpi_divergence"] == 0.0
        assert payload["kernel_multicore"]["exact"] is True
        assert payload["sweep_identity"]["identical"] is True
        # The two known cycle-vs-interval direction disagreements are
        # part of the baseline; a change in this set must fail validate.
        assert payload["interval_direction"]["disagreements"] == [
            "M3D-Het/Dealii", "M3D-Iso/Calculix",
        ]


def test_nan_payload_survives_validate_round_trip(tmp_path):
    # End-to-end: a payload containing non-finite floats round-trips
    # through disk and compares clean against itself, and still drifts
    # against finite replacements.
    payload = {"x": float("nan"), "y": float("inf"), "z": 1.0}
    write_golden("t", payload, goldens_dir=tmp_path)
    decoded = load_golden("t", tmp_path)["payload"]
    assert compare_payloads("t", decoded, canonical(payload)).clean
    drifted = compare_payloads("t", decoded, {"x": 0.0, "y": 1.0, "z": 1.0})
    assert sorted(d.path for d in drifted.drifts) == ["x", "y"]
