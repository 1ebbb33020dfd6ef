"""Tests for the tournament branch predictor."""

import random

import pytest

from repro.uarch.bpred import TournamentPredictor, _Counters


class TestCounters:
    def test_saturation(self):
        counters = _Counters(16)
        for _ in range(10):
            counters.train(3, True)
        assert counters.predict(3)
        for _ in range(10):
            counters.train(3, False)
        assert not counters.predict(3)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            _Counters(10)

    def test_index_masking(self):
        counters = _Counters(16)
        counters.train(16 + 3, True)
        counters.train(3, True)
        assert counters.predict(3)


class TestTournament:
    def test_learns_constant_branch(self):
        predictor = TournamentPredictor()
        for _ in range(500):
            predictor.predict_and_train(4096, True)
        assert predictor.stats.accuracy > 0.95

    def test_learns_loop_pattern(self):
        # T T T T N repeating — local history nails this.
        predictor = TournamentPredictor()
        for i in range(4000):
            predictor.predict_and_train(4096, i % 5 != 4)
        assert predictor.stats.accuracy > 0.9

    def test_random_branch_near_chance(self):
        predictor = TournamentPredictor()
        rng = random.Random(7)
        for _ in range(4000):
            predictor.predict_and_train(4096, rng.random() < 0.5)
        assert 0.35 < predictor.stats.accuracy < 0.65

    def test_biased_mix_reasonable_accuracy(self):
        predictor = TournamentPredictor()
        rng = random.Random(3)
        sites = [(4096 + i * 8, 0.95 if i % 4 else 0.6) for i in range(64)]
        for _ in range(20000):
            pc, bias = sites[rng.randrange(64)]
            predictor.predict_and_train(pc, rng.random() < bias)
        assert predictor.stats.accuracy > 0.82

    def test_stats_accumulate(self):
        predictor = TournamentPredictor()
        for i in range(100):
            predictor.predict_and_train(4096, True)
        assert predictor.stats.branches == 100
