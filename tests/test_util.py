"""Unit tests for the shared utilities."""

import pytest

from repro.util import Lcg
from repro.util.lcg import zipf_weights


class TestLcg:
    def test_deterministic(self):
        a, b = Lcg(42), Lcg(42)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_randint_bounds(self):
        rng = Lcg(1)
        values = [rng.randint(3, 7) for _ in range(200)]
        assert set(values) <= set(range(3, 8))
        assert len(set(values)) > 1

    def test_randint_singleton_range(self):
        assert Lcg(1).randint(5, 5) == 5

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Lcg(1).randint(7, 3)

    def test_random_in_unit_interval(self):
        rng = Lcg(9)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(100))

    def test_choice(self):
        rng = Lcg(3)
        items = ["a", "b", "c"]
        assert all(rng.choice(items) in items for _ in range(50))
        with pytest.raises(ValueError):
            rng.choice([])

    def test_weighted_index_respects_weights(self):
        rng = Lcg(5)
        picks = [rng.weighted_index([0.9, 0.05, 0.05]) for _ in range(500)]
        assert picks.count(0) > 300
        with pytest.raises(ValueError):
            rng.weighted_index([0.0, 0.0])

    def test_shuffle_is_permutation(self):
        rng = Lcg(11)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity


class TestZipf:
    def test_weights_decreasing(self):
        w = zipf_weights(10, 1.2)
        assert w == sorted(w, reverse=True)
        assert w[0] == 1.0

    def test_skew_zero_is_uniform(self):
        assert zipf_weights(5, 0.0) == [1.0] * 5

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
