"""Tests for the distribution library and the RNG wrapper."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Dirac,
    Exponential,
    ModelError,
    RandomSource,
    Uniform,
    Weighted,
    delay_distribution,
    ensure_rng,
)


class TestExponential:
    def test_mean(self):
        assert Exponential(4.0).mean() == pytest.approx(0.25)

    def test_sampling_mean(self):
        rng = RandomSource(1)
        dist = Exponential(2.0)
        samples = [dist.sample(rng) for _ in range(4000)]
        assert sum(samples) / len(samples) == pytest.approx(0.5, rel=0.1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ModelError):
            Exponential(0)
        with pytest.raises(ModelError):
            Exponential(-1)


class TestUniform:
    def test_mean(self):
        assert Uniform(2, 6).mean() == 4.0

    def test_support(self):
        rng = RandomSource(2)
        dist = Uniform(3, 7)
        for _ in range(200):
            assert 3 <= dist.sample(rng) <= 7

    def test_rejects_bad_support(self):
        with pytest.raises(ModelError):
            Uniform(5, 2)
        with pytest.raises(ModelError):
            Uniform(-1, 2)


class TestDirac:
    def test_constant(self):
        dist = Dirac(3.5)
        rng = RandomSource(3)
        assert dist.sample(rng) == 3.5
        assert dist.mean() == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            Dirac(-1)


class TestWeighted:
    def test_normalisation(self):
        dist = Weighted([("a", 98), ("b", 2)])
        assert dist.probabilities == (0.98, 0.02)

    def test_zero_weights_dropped(self):
        dist = Weighted([("a", 1), ("b", 0)])
        assert dist.support() == ("a",)

    def test_sampling_frequencies(self):
        dist = Weighted([("a", 3), ("b", 1)])
        rng = RandomSource(4)
        hits = sum(1 for _ in range(4000) if dist.sample(rng) == "a")
        assert 0.70 < hits / 4000 < 0.80

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ModelError):
            Weighted([])
        with pytest.raises(ModelError):
            Weighted([("a", -1), ("b", 2)])
        with pytest.raises(ModelError):
            Weighted([("a", 0)])


class TestDelayDistribution:
    def test_unbounded_is_exponential(self):
        dist = delay_distribution(0, None, rate=3.0)
        assert isinstance(dist, Exponential)
        assert dist.rate == 3.0

    def test_unbounded_with_lower_bound_is_shifted(self):
        dist = delay_distribution(2, math.inf, rate=1.0)
        rng = RandomSource(5)
        for _ in range(100):
            assert dist.sample(rng) >= 2

    def test_bounded_is_uniform(self):
        dist = delay_distribution(2, 5)
        assert isinstance(dist, Uniform)
        assert (dist.low, dist.high) == (2, 5)

    def test_point_is_dirac(self):
        assert isinstance(delay_distribution(3, 3), Dirac)

    def test_empty_interval_rejected(self):
        with pytest.raises(ModelError):
            delay_distribution(5, 2)


class TestRandomSource:
    def test_deterministic_given_seed(self):
        a = [RandomSource(7).random() for _ in range(5)]
        b = [RandomSource(7).random() for _ in range(5)]
        assert a == b

    def test_spawn_is_independent(self):
        parent = RandomSource(8)
        child = parent.spawn()
        assert child.seed != parent.seed

    def test_ensure_rng(self):
        rng = RandomSource(9)
        assert ensure_rng(rng) is rng
        assert isinstance(ensure_rng(5), RandomSource)
        assert isinstance(ensure_rng(None), RandomSource)

    def test_choice_and_shuffle(self):
        rng = RandomSource(10)
        items = list(range(10))
        assert rng.choice(items) in items
        rng.shuffle(items)
        assert sorted(items) == list(range(10))

    def test_randint_inclusive(self):
        rng = RandomSource(11)
        values = {rng.randint(1, 3) for _ in range(100)}
        assert values == {1, 2, 3}

    @pytest.mark.parametrize("clone", [
        lambda rng: pickle.loads(pickle.dumps(rng)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_copy_continues_the_stream_without_advancing_it(self, clone):
        def draws(source):
            items = list(range(8))
            source.shuffle(items)
            child = source.spawn()
            return [source.random(), source.uniform(0, 5),
                    source.expovariate(2.0), source.randint(1, 9),
                    source.choice("abcdef"), items,
                    child.seed, child.spawn_key]

        rng = RandomSource(12, spawn_key=(3,))
        rng.random()
        rng.spawn()
        twin = clone(rng)
        assert repr(twin) == repr(rng)
        copied = draws(twin)
        # Had the copy drawn from the original's generator, the
        # original would now be ahead of the copy.
        assert draws(rng) == copied


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(min_size=1, max_size=3),
                          st.integers(1, 100)),
                min_size=1, max_size=6))
def test_weighted_probabilities_sum_to_one(pairs):
    dist = Weighted(pairs)
    assert sum(dist.probabilities) == pytest.approx(1.0)
