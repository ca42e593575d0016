"""Tests for fixed-effort importance splitting (rare events)."""

import pytest

from repro.core import AnalysisError
from repro.models import brp
from repro.pta import PTA, PTANetwork
from repro.smc import fixed_effort_splitting
from repro.ta import clk

Q_ATTEMPT = 0.02 + 0.98 * 0.01


def chain_pta(p, levels):
    """A chain of biased coin flips: P(top) = p ** levels exactly."""
    a = PTA("Chain", clocks=["x"])
    for k in range(levels + 1):
        a.add_location(f"n{k}", invariant=[clk("x", "<=", 1)]
                       if k < levels else ())
    a.add_location("dead")
    a.initial_location = "n0"
    for k in range(levels):
        a.add_prob_edge(f"n{k}",
                        [(p, f"n{k + 1}", [("x", 0)]),
                         (1 - p, "dead", ())],
                        guard=[clk("x", ">=", 1)])
    net = PTANetwork()
    net.add_process("C", a)
    return net.freeze()


def chain_level(names, _valuation, _clocks):
    name = names[0]
    if name == "dead":
        return 0
    return int(name[1:])


class TestChain:
    def test_exact_product_structure(self):
        net = chain_pta(0.2, 3)
        result = fixed_effort_splitting(net, chain_level, max_level=3,
                                        runs_per_stage=600, rng=1)
        assert result.probability == pytest.approx(0.2 ** 3, rel=0.4)
        assert len(result.stage_probabilities) == 3
        assert result.total_runs == 3 * 600

    def test_stage_probabilities_near_p(self):
        net = chain_pta(0.3, 2)
        result = fixed_effort_splitting(net, chain_level, max_level=2,
                                        runs_per_stage=800, rng=2)
        for stage in result.stage_probabilities:
            assert 0.2 < stage < 0.4

    def test_dead_stage_returns_zero(self):
        net = chain_pta(0.0001, 2)
        result = fixed_effort_splitting(net, chain_level, max_level=2,
                                        runs_per_stage=50, rng=3)
        # With 50 runs per stage the first climb almost surely dies out.
        assert result.probability == 0.0 or result.probability < 1e-4

    def test_initial_level_must_be_zero(self):
        net = chain_pta(0.5, 2)
        with pytest.raises(AnalysisError):
            fixed_effort_splitting(net, lambda n, v, c: 1, max_level=2,
                                   runs_per_stage=10, rng=4)

    @pytest.mark.parametrize("runs", [0, -3])
    def test_empty_stage_budget_is_rejected(self, runs):
        with pytest.raises(AnalysisError, match="runs_per_stage"):
            fixed_effort_splitting(chain_pta(0.5, 2), chain_level,
                                   max_level=2, runs_per_stage=runs, rng=4)


class TestBRPRareEvent:
    def test_single_frame_failure_probability(self):
        """The event Table I's modes column could not observe: a frame
        exhausting its retransmissions (~2.6e-5), estimated within a
        small factor from 1500 short runs."""
        net = brp.make_brp(1, 2, 1)

        def level(names, valuation, clocks):
            if names[0] in ("s_nok", "s_dk"):
                return 3
            return valuation["rc"]

        result = fixed_effort_splitting(net, level, max_level=3,
                                        runs_per_stage=500, rng=7)
        truth = Q_ATTEMPT ** 3
        assert result.probability == pytest.approx(truth, rel=0.5)
        assert result.total_runs == 1500
