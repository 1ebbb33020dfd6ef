"""Tests for the analytical SRAM/CAM array model."""

import pytest

from repro.sram.array import (
    ArrayGeometry,
    analyze_plane,
    banked_metrics,
    solve_2d,
    solve_with_org,
)
from repro.sram.bitcell import Bitcell


def geometry(**overrides):
    defaults = dict(name="test", words=128, bits=64)
    defaults.update(overrides)
    return ArrayGeometry(**defaults)


class TestGeometryValidation:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ArrayGeometry("bad", words=1, bits=8)
        with pytest.raises(ValueError):
            ArrayGeometry("bad", words=64, bits=0)
        with pytest.raises(ValueError):
            ArrayGeometry("bad", words=64, bits=8, read_ports=0)

    def test_ports_sum(self):
        g = geometry(read_ports=12, write_ports=6)
        assert g.ports == 18


class TestPlaneAnalysis:
    def test_positive_results(self):
        plane = analyze_plane(64, 64, Bitcell(ports=1))
        assert plane.delay.total > 0
        assert plane.read_energy.total > 0
        assert plane.write_energy.total > 0
        assert plane.area > 0
        assert plane.leakage_current > 0

    def test_wordline_delay_grows_with_cols(self):
        cell = Bitcell(ports=1)
        narrow = analyze_plane(64, 32, cell)
        wide = analyze_plane(64, 256, cell)
        assert wide.delay.wordline > narrow.delay.wordline

    def test_bitline_delay_grows_with_rows(self):
        cell = Bitcell(ports=1)
        short = analyze_plane(32, 64, cell)
        tall = analyze_plane(512, 64, cell)
        assert tall.delay.bitline > short.delay.bitline

    def test_decoder_exclusion(self):
        cell = Bitcell(ports=1)
        with_dec = analyze_plane(64, 64, cell, include_decoder=True)
        without = analyze_plane(64, 64, cell, include_decoder=False)
        assert without.delay.decode == 0.0
        assert without.width < with_dec.width

    def test_cam_search_adds_matchline(self):
        cell = Bitcell(ports=2, cam=True)
        plain = analyze_plane(64, 32, cell, cam_search=False)
        cam = analyze_plane(64, 32, cell, cam_search=True)
        assert cam.delay.matchline > 0
        assert plain.delay.matchline == 0
        assert cam.read_energy.matchline > 0

    def test_pitch_override_stretches_wires(self):
        cell = Bitcell(ports=1)
        base = analyze_plane(64, 64, cell)
        stretched = analyze_plane(
            64, 64, cell, pitch_override=(cell.width * 2, cell.height * 2)
        )
        assert stretched.delay.wordline > base.delay.wordline
        assert stretched.delay.bitline > base.delay.bitline
        assert stretched.area > base.area

    def test_extensions_lengthen_lines(self):
        cell = Bitcell(ports=1)
        base = analyze_plane(64, 64, cell)
        extended = analyze_plane(
            64, 64, cell, wordline_extension=25e-6, bitline_extension=25e-6
        )
        assert extended.delay.wordline > base.delay.wordline
        assert extended.delay.bitline > base.delay.bitline

    def test_penalised_layer_slower(self):
        cell = Bitcell(ports=1)
        bottom = analyze_plane(64, 64, cell)
        top = analyze_plane(64, 64, cell.on_layer(0.17))
        assert top.delay.total > bottom.delay.total

    def test_rejects_empty_plane(self):
        with pytest.raises(ValueError):
            analyze_plane(0, 8, Bitcell(ports=1))


class TestSolve2d:
    def test_big_arrays_fold(self):
        metrics = solve_2d(geometry(name="BPT", words=4096, bits=8))
        assert metrics.ndbl > 1 or metrics.nspd > 1

    def test_small_multiported_stay_flat(self):
        metrics = solve_2d(
            geometry(name="RAT", words=32, bits=8, read_ports=8, write_ports=4)
        )
        assert metrics.ndwl * metrics.ndbl <= 4

    def test_access_time_monotonic_in_words(self):
        small = solve_2d(geometry(words=64))
        large = solve_2d(geometry(words=2048))
        assert large.access_time > small.access_time

    def test_area_monotonic_in_capacity(self):
        small = solve_2d(geometry(words=64))
        large = solve_2d(geometry(words=1024))
        assert large.area > small.area

    def test_more_ports_cost_latency_and_area(self):
        single = solve_2d(geometry())
        multi = solve_2d(geometry(read_ports=8, write_ports=4))
        assert multi.access_time > single.access_time
        assert multi.area > single.area

    def test_detail_sums_to_access_time(self):
        metrics = solve_2d(geometry())
        assert metrics.detail.total == pytest.approx(metrics.access_time)


class TestSolveWithOrg:
    def test_inherits_organisation(self):
        g = geometry(words=1024, bits=64)
        org = solve_2d(g)
        inherited = solve_with_org(g, org)
        assert inherited.ndwl == org.ndwl
        assert inherited.ndbl == org.ndbl
        assert inherited.nspd == org.nspd

    def test_half_bits_shrinks_wordline(self):
        g = geometry(words=256, bits=128)
        org = solve_2d(g)
        full = solve_with_org(g, org)
        half = solve_with_org(g, org, bits=64.0)
        assert half.detail.wordline < full.detail.wordline

    def test_half_words_clamps_division(self):
        g = geometry(words=64, bits=64)
        org = solve_2d(g)
        # Requesting fewer words than the organisation supports must not
        # produce sub-one-row subarrays.
        half = solve_with_org(g, org, words=8)
        assert half.access_time > 0


class TestBanking:
    def test_single_bank_identity(self):
        g = geometry(banks=1)
        bank = solve_2d(g)
        assert banked_metrics(g, bank) is bank

    def test_banks_multiply_area_and_leakage(self):
        g = geometry(banks=8)
        bank = solve_2d(g)
        total = banked_metrics(g, bank)
        assert total.area == pytest.approx(8 * bank.area)
        assert total.leakage_power == pytest.approx(8 * bank.leakage_power)

    def test_bank_select_adds_latency(self):
        g = geometry(banks=8)
        bank = solve_2d(g)
        total = banked_metrics(g, bank)
        assert total.access_time > bank.access_time


class TestSolve2dMemo:
    def test_memoized_solves_equal_fresh_searches(self, monkeypatch):
        """Every argument set met while resolving all registered points
        gets the same organisation from the memo as from a fresh
        unmemoized search, and each set is searched once."""
        import importlib

        from repro.design.registry import registered_points
        from repro.lru import LruMemo
        from repro.partition import strategies
        from repro.sram import array

        resolve_module = importlib.import_module("repro.design.resolve")
        monkeypatch.setattr(array, "_SOLVE_2D_MEMO", LruMemo(cap=128))
        monkeypatch.setattr(resolve_module, "_FREQUENCY_MEMO",
                            LruMemo(cap=256))
        searched = []
        search = array._search_2d

        def counting_search(geometry, **kwargs):
            searched.append((geometry, kwargs["vdd"]))
            return search(geometry, **kwargs)

        solved = []

        def recording_solve(geometry, **kwargs):
            result = array.solve_2d(geometry, **kwargs)
            solved.append((geometry, kwargs, result))
            return result

        monkeypatch.setattr(array, "_search_2d", counting_search)
        monkeypatch.setattr(strategies, "solve_2d", recording_solve)
        for point in registered_points():
            resolve_module.resolve(point)
        fresh = {}
        for geometry, kwargs, result in solved:
            key = (geometry, tuple(sorted(kwargs.items())))
            if key not in fresh:
                fresh[key] = search(geometry, **kwargs)
            assert result == fresh[key]
        assert len(solved) > len(fresh)  # the memo had work to save
        assert len(searched) == len(set(searched)) == len(fresh)
