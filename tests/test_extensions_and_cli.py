"""Tests for the extension studies and the CLI."""

import re

import pytest

from repro.cli import _parse_geometry, main
from repro.engine import get_engine
from repro.experiments.extensions import (
    design_alternatives_study,
    lp_top_energy_study,
    tungsten_interconnect_study,
)


class TestExtensions:
    def test_lp_top_saves_extra_points(self):
        # Section 7.1.2: a further ~9 energy points over M3D-Het.
        result = lp_top_energy_study(uops=3000, apps=4)
        assert result.average_extra_points > 3.0
        assert all(lp < het for lp, het in
                   zip(result.lp_top_energy, result.het_energy))

    def test_design_alternatives_ordering(self):
        study = design_alternatives_study(total_uops=12000, apps=3)
        # Section 7.2: frequency beats width; the 2X design beats both.
        assert study["M3D-Het-2X"]["speedup"] > study["M3D-Het"]["speedup"]
        assert study["M3D-Het-W"]["speedup"] <= study["M3D-Het"]["speedup"] + 0.05
        # All M3D designs save energy.
        for name in ("M3D-Het", "M3D-Het-W", "M3D-Het-2X"):
            assert study[name]["energy"] < 1.0, name

    def test_tungsten_three_times_slower_wires(self):
        study = tungsten_interconnect_study()
        assert study["resistance_factor"] == pytest.approx(3.0)
        assert study["slowdown"] > 1.3  # driver term dilutes the 3x wire R
        assert study["tungsten_ps"] > study["copper_ps"]


class TestCli:
    def test_parse_known_structure(self):
        geometry = _parse_geometry("RF")
        assert (geometry.words, geometry.bits) == (160, 64)

    def test_parse_custom_geometry(self):
        geometry = _parse_geometry("256x32x6")
        assert geometry.words == 256
        assert geometry.bits == 32
        assert geometry.ports == 6

    def test_parse_default_single_port(self):
        assert _parse_geometry("1024x8").ports == 1

    @pytest.mark.parametrize("bad", [
        "not-a-structure",  # neither a Table 9 name nor a geometry
        "12x",              # truncated WORDSxBITS
        "x64",              # missing word count
        "12x34x",           # trailing separator
        "12x34x5x6",        # too many dimensions
        "-12x34",           # negative dimension
        "rf",               # structure names are case-sensitive
        "",
    ])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(SystemExit) as excinfo:
            _parse_geometry(bad)
        assert "WORDSxBITS" in str(excinfo.value)

    def test_cli_partition_runs(self, capsys):
        main(["partition", "RAT"])
        output = capsys.readouterr().out
        assert "RAT" in output
        assert "M3D-Iso" in output
        assert "TSV3D" in output

    def test_cli_frequencies_runs(self, capsys):
        main(["table", "11"])
        output = capsys.readouterr().out
        assert "M3D-Het" in output
        assert "3.3" in output

    @pytest.fixture
    def fresh_engine(self, monkeypatch):
        """A process that has not built its default engine yet, under
        ``REPRO_JOBS=3``; the test's engine is closed and the previous
        one restored afterwards."""
        import repro.engine.sweep as sweep

        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        original = sweep._default_engine
        sweep._default_engine = None
        yield
        if sweep._default_engine is not None:
            sweep._default_engine.cache.close()
        sweep._default_engine = original

    def test_cli_explicit_jobs_beats_env(self, fresh_engine, capsys):
        main(["--jobs", "1", "table", "11"])
        assert get_engine().jobs == 1

    def test_cli_cache_dir_keeps_env_jobs(self, fresh_engine, tmp_path,
                                          capsys):
        main(["--cache-dir", str(tmp_path), "table", "11"])
        assert get_engine().jobs == 3
        assert get_engine().cache.cache_dir == tmp_path

    def test_cli_table_runs(self, capsys):
        main(["table", "2"])
        output = capsys.readouterr().out
        assert "MIV" in output

    def test_cli_rejects_unknown_table(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "99"])
        # The valid numbers, in paper order.
        assert str(excinfo.value) == "no table 99; choose 1 2 3 4 5 6 8 11"

    def test_cli_rejects_unknown_figure(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "99"])
        assert str(excinfo.value) == "no figure 99; choose 2 6 7 8 9 10"

    def test_every_listed_artifact_prints_its_report_section(self, capsys):
        main(["--uops", "200", "report"])
        report = capsys.readouterr().out
        main(["list"])
        listing = capsys.readouterr().out
        for kind, label in (("table", "Tables"), ("figure", "Figures")):
            numbers = re.search(rf"^{label}:\s+(.*)$", listing, flags=re.M)
            for number in numbers.group(1).split():
                main(["--uops", "200", kind, number])
                output = capsys.readouterr().out
                # The report's section(s), heading and body, verbatim.
                assert output.startswith("\n=== ") and output in report, \
                    (kind, number)

    def test_cli_list_enumerates_points_tables_figures(self, capsys):
        main(["list"])
        output = capsys.readouterr().out
        for group in ("[paper]", "[paper-multicore]", "[extension]"):
            assert group in output
        for name in ("Base", "M3D-Het", "M3D-Het-2X", "TSV3D-Het"):
            assert name in output
        assert "Tables:" in output and "11" in output
        assert "Figures:" in output and "10" in output

    def test_cli_report_prints_every_table_and_figure(self, capsys):
        main(["--uops", "200", "report"])
        output = capsys.readouterr().out
        assert re.findall(r"^=== (.*) ===$", output, flags=re.M) == [
            "Table 1: via area overhead",
            "Table 2: via electrical characteristics",
            "Figure 2: relative areas",
            "Table 3: bit partitioning (RF, BPT)",
            "Table 4: word partitioning (RF, BPT)",
            "Table 5: port partitioning (RF)",
            "Table 6 (M3D): best iso-layer partitions",
            "Table 6 (TSV3D): best TSV partitions",
            "Table 8: hetero-layer partitions",
            "Table 11: derived frequencies",
            "Figure 6: single-core speedup",
            "Figure 7: single-core normalized energy",
            "Figure 8: peak temperature (C)",
            "Figure 9: multicore speedup",
            "Figure 10: multicore normalized energy",
        ]

    def test_cli_sweep_registered_point(self, capsys):
        main(["--uops", "200", "sweep", "M3D-Het50"])
        output = capsys.readouterr().out
        assert "M3D-Het50" in output
        assert "Sweep summary" in output
        assert "GHz" in output

    def test_cli_sweep_json_point_writes_valid_manifest(self, tmp_path,
                                                        capsys):
        import json

        from repro.obs import validate_manifest

        spec = tmp_path / "points.json"
        spec.write_text(json.dumps({
            "name": "M3D-Het40", "stack": "M3D", "top_layer_slowdown": 0.40,
            "partition": "asymmetric",
        }))
        manifest_path = tmp_path / "manifest.json"
        main(["--uops", "200", "sweep", str(spec),
              "--metrics-out", str(manifest_path)])
        output = capsys.readouterr().out
        assert "M3D-Het40" in output
        manifest = json.loads(manifest_path.read_text())
        validate_manifest(manifest)
        assert "sweep" in manifest["command"]

    def test_cli_sweep_rejects_unknown_point(self):
        with pytest.raises(SystemExit, match="M3D-Missing"):
            main(["sweep", "M3D-Missing"])

    def test_cli_sweep_rejects_empty_request(self):
        with pytest.raises(SystemExit, match="no design points"):
            main(["sweep", ","])
