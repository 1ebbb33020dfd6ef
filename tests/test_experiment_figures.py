"""Light tests for the figure harness (tiny trace sizes for speed)."""

import pytest

from repro.design import sweep
from repro.engine import configure
from repro.experiments.figures import (
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
)


@pytest.fixture(scope="module")
def fig6():
    return figure6(uops=1500)


class TestFigure6Harness:
    def test_all_apps_present(self, fig6):
        assert len(fig6.apps) == 21
        assert fig6.apps[0] == "Astar"

    def test_all_configs_present(self, fig6):
        assert set(fig6.values) == {
            "Base", "TSV3D", "M3D-Iso", "M3D-HetNaive", "M3D-Het", "M3D-HetAgg",
        }

    def test_base_is_unity(self, fig6):
        assert all(v == pytest.approx(1.0) for v in fig6.values["Base"])

    def test_3d_designs_speed_up(self, fig6):
        for config in ("M3D-Iso", "M3D-Het", "M3D-HetAgg"):
            assert fig6.average(config) > 1.0, config

    def test_averages_consistent(self, fig6):
        averages = fig6.averages()
        for config, series in fig6.values.items():
            assert averages[config] == pytest.approx(sum(series) / len(series))

    def test_print_renders(self, fig6, capsys):
        fig6.print()
        out = capsys.readouterr().out
        assert "Average" in out
        assert "Astar" in out


class TestFigure7Harness:
    def test_energy_normalised_to_base(self):
        series = figure7(uops=1500)
        assert all(v == pytest.approx(1.0) for v in series.values["Base"])
        assert series.average("M3D-Het") < 1.0


class TestFigure9Harness:
    def test_multicore_series_shape(self):
        series = figure9(total_uops=6000)
        assert len(series.apps) == 15
        assert set(series.values) == {
            "Base", "TSV3D", "M3D-Het", "M3D-Het-W", "M3D-Het-2X",
        }
        assert series.average("M3D-Het-2X") > 1.3


class TestSharedEvaluation:
    """Figures 6-8 project one single-core lineup evaluation and figures
    9-10 one multicore lineup evaluation; a new engine evaluates again."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """Each lineup group :func:`evaluate_points` finishes, as its
        ``multicore`` flag, on a fresh default engine."""
        real = sweep._finish_group
        groups = []

        def counting(group, flat):
            groups.append(group.multicore)
            return real(group, flat)

        monkeypatch.setattr(sweep, "_finish_group", counting)
        configure(jobs=1, cache_dir=None)
        yield groups
        configure(jobs=1, cache_dir=None)

    def test_figures_6_to_8_share_one_evaluation(self, evaluated):
        for figure in (figure6, figure7, figure8):
            figure(uops=600)
        assert evaluated == [False]

    def test_figures_9_and_10_share_one_evaluation(self, evaluated):
        for figure in (figure9, figure10):
            figure(total_uops=3000)
        assert evaluated == [True]

    def test_a_new_engine_evaluates_again(self, evaluated):
        figure6(uops=600)
        configure(jobs=1, cache_dir=None)
        figure7(uops=600)
        assert evaluated == [False, False]
