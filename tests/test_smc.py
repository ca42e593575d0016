"""Tests for the statistical model checking package."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalysisError, RandomSource
from repro.models.traingate import make_traingate
from repro.smc import (
    MeanEstimate,
    ProbabilityEstimate,
    StochasticSimulator,
    chernoff_runs,
    empirical_cdf,
    estimate_mean,
    estimate_probability,
    first_passage_cdfs,
    sprt,
)
from repro.ta import Automaton, Network, clk


def one_shot():
    """One edge enabled in x within [2, 5] under invariant x <= 5."""
    a = Automaton("A", clocks=["x"])
    a.add_location("s", invariant=[clk("x", "<=", 5)])
    a.add_location("t")
    a.add_edge("s", "t", guard=[clk("x", ">=", 2)], resets=[("x", 0)])
    net = Network()
    net.add_process("P", a)
    return net.freeze()


class TestStochasticSimulator:
    def test_uniform_delay_within_window(self):
        sim = StochasticSimulator(one_shot(), rng=5)
        for _ in range(50):
            delay, _desc, state = sim.step(sim.initial())
            assert 0 <= delay <= 5
            assert sim.network.location_vector_names(state.locs) == ("t",)

    def test_delay_distribution_is_uniform_over_invariant(self):
        # UPPAAL-SMC picks uniformly over [lower-bound, invariant].
        sim = StochasticSimulator(one_shot(), rng=6)
        delays = [sim.step(sim.initial())[0] for _ in range(600)]
        mean = sum(delays) / len(delays)
        # Uniform over [2, 5] has mean 3.5.
        assert 3.2 < mean < 3.8

    def test_exponential_when_no_invariant(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s", rate=2.0)
        a.add_location("t")
        a.add_edge("s", "t")
        net = Network()
        net.add_process("P", a)
        sim = StochasticSimulator(net, rng=7)
        delays = [sim.step(sim.initial())[0] for _ in range(800)]
        mean = sum(delays) / len(delays)
        assert 0.4 < mean < 0.6  # Exp(2) has mean 0.5

    def test_race_prefers_faster_component(self):
        fast = Automaton("F", clocks=[])
        fast.add_location("s", rate=50.0)
        fast.add_location("t")
        fast.add_edge("s", "t")
        slow = Automaton("S", clocks=[])
        slow.add_location("s", rate=0.02)
        slow.add_location("t")
        slow.add_edge("s", "t")
        net = Network()
        net.add_process("F", fast)
        net.add_process("S", slow)
        sim = StochasticSimulator(net, rng=8)
        fast_wins = 0
        for _ in range(100):
            _d, _desc, state = sim.step(sim.initial())
            if sim.network.location_vector_names(state.locs)[0] == "t":
                fast_wins += 1
        assert fast_wins > 95

    def test_run_horizon(self):
        sim = StochasticSimulator(one_shot(), rng=9)
        # After reaching t (no outgoing edges) the run stops.
        elapsed = sim.run(max_time=100)
        assert elapsed <= 5

    def test_observer_sees_initial_state(self):
        seen = []
        sim = StochasticSimulator(one_shot(), rng=10)
        sim.run(max_time=1,
                observer=lambda t, names, v, c: seen.append(names[0]))
        assert seen[0] == "s"

    def test_committed_fires_instantly(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("c", committed=True)
        a.add_location("t")
        a.add_edge("c", "t")
        net = Network()
        net.add_process("P", a)
        sim = StochasticSimulator(net, rng=11)
        delay, _desc, _state = sim.step(sim.initial())
        assert delay == 0.0

    def test_traingate_run_is_safe(self):
        """SMC runs of the verified model never see two trains crossing."""
        net = make_traingate(3)
        sim = StochasticSimulator(net, rng=12)

        def check(t, names, valuation, clocks):
            assert sum(1 for n in names[:3] if n == "Cross") <= 1

        for _ in range(5):
            sim.run(max_time=60, observer=check)


class TestEstimation:
    def test_probability_estimate_mean(self):
        e = ProbabilityEstimate(30, 100)
        assert e.mean == pytest.approx(0.3)
        assert e.low < 0.3 < e.high

    def test_extreme_counts(self):
        zero = ProbabilityEstimate(0, 50)
        assert zero.low == 0.0 and zero.mean == 0.0 and zero.high > 0.0
        full = ProbabilityEstimate(50, 50)
        assert full.high == 1.0 and full.low < 1.0

    def test_interval_shrinks_with_runs(self):
        small = ProbabilityEstimate(5, 10)
        large = ProbabilityEstimate(500, 1000)
        assert (large.high - large.low) < (small.high - small.low)

    def test_bernoulli_std(self):
        e = ProbabilityEstimate(3, 10000)
        assert e.std == pytest.approx(math.sqrt(3e-4 * (1 - 3e-4)))

    def test_estimate_probability_biased_coin(self):
        e = estimate_probability(lambda rng: rng.random() < 0.25,
                                 runs=2000, rng=13)
        assert e.low < 0.25 < e.high

    def test_mean_estimate(self):
        m = estimate_mean(lambda rng: rng.uniform(0, 10), runs=2000, rng=14)
        assert 4.5 < m.mean < 5.5
        lo, hi = m.interval()
        assert lo < m.mean < hi

    def test_mean_estimate_needs_samples(self):
        with pytest.raises(AnalysisError):
            MeanEstimate([])

    def test_chernoff_runs(self):
        # Classic figure: eps=0.05, delta=0.05 -> 738 runs.
        assert chernoff_runs(0.05, 0.05) == 738
        assert chernoff_runs(0.01, 0.05) > chernoff_runs(0.05, 0.05)

    def test_chernoff_validation(self):
        with pytest.raises(AnalysisError):
            chernoff_runs(0.0, 0.5)


class TestSPRT:
    def test_accepts_true_hypothesis(self):
        r = sprt(lambda rng: rng.random() < 0.9, theta=0.5,
                 indifference=0.05, rng=15)
        assert r.accept

    def test_rejects_false_hypothesis(self):
        r = sprt(lambda rng: rng.random() < 0.1, theta=0.5,
                 indifference=0.05, rng=16)
        assert not r.accept

    def test_needs_fewer_runs_far_from_threshold(self):
        near = sprt(lambda rng: rng.random() < 0.55, theta=0.5,
                    indifference=0.02, rng=17)
        far = sprt(lambda rng: rng.random() < 0.95, theta=0.5,
                   indifference=0.02, rng=18)
        assert far.runs < near.runs

    def test_indifference_validation(self):
        with pytest.raises(AnalysisError):
            sprt(lambda rng: True, theta=0.005, indifference=0.01)


class TestCDF:
    def test_empirical_cdf_basics(self):
        cdf = empirical_cdf([1, 2, 3, math.inf], [0, 1, 2, 3, 10])
        assert cdf == [0.0, 0.25, 0.5, 0.75, 0.75]

    def test_monotone(self):
        cdf = empirical_cdf([5, 3, 8, 1], list(range(10)))
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))

    def test_fig4_shape(self):
        """Faster trains (higher rate) cross earlier: CDFs ordered."""
        n = 3
        net = make_traingate(n)
        preds = {i: (lambda names, v, c, i=i: names[i] == "Cross")
                 for i in range(n)}
        grid = [20, 50, 90]
        cdfs = first_passage_cdfs(
            lambda rng: StochasticSimulator(net, rng=rng),
            preds, horizon=100, runs=150, grid=grid, rng=19)
        # At the horizon's end nearly every train crossed at least once.
        assert cdfs[n - 1][-1] > 0.8
        # The fastest train dominates the slowest early on.
        assert cdfs[n - 1][0] >= cdfs[0][0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                max_size=30),
       st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                max_size=10))
def test_cdf_values_are_probabilities(samples, grid):
    cdf = empirical_cdf(samples, sorted(grid))
    assert all(0.0 <= p <= 1.0 for p in cdf)
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))
