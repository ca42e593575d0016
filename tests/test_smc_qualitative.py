"""Tests for qualitative SMC (SPRT over the stochastic TA semantics)."""

import math

import pytest

from repro.models.traingate import make_traingate
from repro.smc import (
    StochasticSimulator,
    first_passage_cdfs,
    probability_at_least,
    probability_estimate,
)
from repro.ta import Automaton, Network, clk


def biased_race(fast_rate, slow_rate):
    """Two exponential components racing to their target location."""
    network = Network()
    for name, rate in (("F", fast_rate), ("S", slow_rate)):
        automaton = Automaton(name, clocks=[])
        automaton.add_location("wait", rate=rate)
        automaton.add_location("won")
        automaton.add_edge("wait", "won")
        network.add_process(name, automaton)
    return network.freeze()


def f_wins(names, _valuation, _clocks):
    """F reached its target while S is still waiting: F won the race."""
    return names[0] == "won" and names[1] == "wait"


def train0_crosses(names, _valuation, _clocks):
    return names[0] == "Cross"


class TestProbabilityAtLeast:
    def test_high_probability_accepted(self):
        network = biased_race(20.0, 0.1)
        result = probability_at_least(network, f_wins, theta=0.5,
                                      horizon=50, rng=1)
        assert result.accept

    def test_low_probability_rejected(self):
        network = biased_race(0.1, 20.0)
        result = probability_at_least(network, f_wins, theta=0.5,
                                      horizon=50, rng=2)
        assert not result.accept

    def test_traingate_crossing_likely(self):
        network = make_traingate(2)
        result = probability_at_least(
            network,
            lambda names, v, c: names[0] == "Cross",
            theta=0.8, horizon=80, indifference=0.05, rng=3)
        assert result.accept

    def test_run_counts_adapt(self):
        easy = probability_at_least(
            biased_race(50.0, 0.01), f_wins, theta=0.5, horizon=50,
            rng=4)
        assert easy.runs < 200


class TestProbabilityEstimate:
    def test_interval_brackets_truth(self):
        # F wins with probability rate_f / (rate_f + rate_s) = 0.75.
        network = biased_race(3.0, 1.0)
        estimate = probability_estimate(network, f_wins, horizon=100,
                                        runs=600, rng=5)
        assert estimate.low <= 0.75 <= estimate.high

    def test_bounded_horizon_lowers_probability(self):
        network = biased_race(0.05, 0.01)
        tight = probability_estimate(network, f_wins, horizon=1,
                                     runs=300, rng=6)
        loose = probability_estimate(network, f_wins, horizon=200,
                                     runs=300, rng=6)
        assert tight.mean <= loose.mean

    def test_state_entered_after_horizon_is_not_a_hit(self):
        """``Pr[<=1](<> done)`` for one rate-1 exponential edge is
        ``1 - e^-1``: a run whose only step lands past the horizon must
        not count as a hit."""
        automaton = Automaton("E", clocks=[])
        automaton.add_location("wait", rate=1.0)
        automaton.add_location("done")
        automaton.add_edge("wait", "done")
        network = Network()
        network.add_process("E", automaton)
        estimate = probability_estimate(
            network.freeze(), lambda names, _v, _c: names[0] == "done",
            horizon=1, runs=600, rng=8)
        assert estimate.low <= 1 - math.exp(-1) <= estimate.high

    def test_agrees_with_the_cdf_at_the_horizon(self):
        """Time-bounded SMC and the first-passage CDFs share one
        recorder: with the same per-run seeds they agree exactly."""
        network = make_traingate(3)
        estimate = probability_estimate(network, train0_crosses,
                                        horizon=30, runs=120, rng=9)
        cdf = first_passage_cdfs(
            lambda rng: StochasticSimulator(network, rng=rng),
            {0: train0_crosses}, horizon=30, runs=120, grid=[30], rng=9)
        assert 0 < estimate.successes < 120
        assert cdf == {0: [estimate.mean]}


class TestExpectedValue:
    def test_max_queue_length(self):
        from repro.models.traingate import make_traingate
        from repro.smc import expected_value

        network = make_traingate(2)
        estimate = expected_value(
            network, lambda n, v, c: v["len"], horizon=40, runs=100,
            rng=7, mode="max")
        assert 0.5 <= estimate.mean <= 2.0

    def test_modes_ordered(self):
        from repro.models.traingate import make_traingate
        from repro.smc import expected_value

        network = make_traingate(2)
        kwargs = dict(horizon=40, runs=60, rng=8)
        low = expected_value(network, lambda n, v, c: v["len"],
                             mode="min", **kwargs)
        high = expected_value(network, lambda n, v, c: v["len"],
                              mode="max", **kwargs)
        assert low.mean <= high.mean

    def test_bad_mode(self):
        import pytest as _pytest

        from repro.core import AnalysisError
        from repro.models.traingate import make_traingate
        from repro.smc import expected_value

        with _pytest.raises(AnalysisError):
            expected_value(make_traingate(2), lambda n, v, c: 0,
                           horizon=10, mode="avg")
