"""Tests for PTA syntax, the digital-clocks translation, the
overapproximation, and the digital simulator."""

import math

import pytest

from repro.core import ModelError, Declarations
from repro.mdp import expected_total_reward, reachability_probability
from repro.pta import (
    PTA,
    PTANetwork,
    build_digital_mdp,
    DigitalSimulator,
    overapproximate_network,
)
from repro.ta import clk


def coin_pta(p=0.5):
    """One probabilistic step: flip -> heads/tails after exactly 1 t.u."""
    a = PTA("Coin", clocks=["x"])
    a.add_location("flip", invariant=[clk("x", "<=", 1)])
    a.add_location("heads")
    a.add_location("tails")
    a.initial_location = "flip"
    a.add_prob_edge("flip", [(p, "heads"), (1 - p, "tails")],
                    guard=[clk("x", ">=", 1)])
    net = PTANetwork("coin")
    net.add_process("C", a)
    return net.freeze()


def retry_pta(p=0.25):
    """Repeated trials, 1 time unit each, until success."""
    a = PTA("Retry", clocks=["x"])
    a.add_location("try", invariant=[clk("x", "<=", 1)])
    a.add_location("done")
    a.initial_location = "try"
    a.add_prob_edge("try", [(p, "done"), (1 - p, "try", [("x", 0)])],
                    guard=[clk("x", ">=", 1)])
    net = PTANetwork("retry")
    net.add_process("R", a)
    return net.freeze()


class TestPTASyntax:
    def test_branch_probabilities_must_sum(self):
        a = PTA("A")
        a.add_location("s")
        a.add_location("t")
        with pytest.raises(ModelError):
            a.add_prob_edge("s", [(0.5, "t")])

    def test_unknown_branch_target(self):
        a = PTA("A")
        a.add_location("s")
        with pytest.raises(ModelError):
            a.add_prob_edge("s", [(1.0, "ghost")])

    def test_unknown_branch_reset_clock(self):
        a = PTA("A", clocks=["x"])
        a.add_location("s")
        with pytest.raises(ModelError):
            a.add_prob_edge("s", [(1.0, "s", [("y", 0)])])

    def test_empty_branches(self):
        a = PTA("A")
        a.add_location("s")
        with pytest.raises(ModelError):
            a.add_prob_edge("s", [])


class TestDigitalTranslation:
    def test_coin_probability(self):
        dm = build_digital_mdp(coin_pta(0.3))
        heads = dm.location_states("C", "heads")
        v = reachability_probability(dm.mdp, heads)
        assert v[0] == pytest.approx(0.3)

    def test_unknown_location_is_a_model_error(self):
        dm = build_digital_mdp(coin_pta(0.3))
        with pytest.raises(ModelError, match="unknown location 'nowhere'"):
            dm.location_states("C", "nowhere")

    def test_retry_reaches_almost_surely(self):
        dm = build_digital_mdp(retry_pta(0.25))
        done = dm.location_states("R", "done")
        v = reachability_probability(dm.mdp, done)
        assert v[0] == pytest.approx(1.0)

    def test_expected_time_is_geometric_mean(self):
        # Each trial takes exactly 1 t.u.; expected trials 1/p.
        dm = build_digital_mdp(retry_pta(0.25))
        done = dm.location_states("R", "done")
        v = expected_total_reward(dm.mdp, done, maximize=True)
        assert v[0] == pytest.approx(4.0)

    def test_rejects_open_guards(self):
        a = PTA("A", clocks=["x"])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t", guard=[clk("x", "<", 2)])
        net = PTANetwork()
        net.add_process("P", a)
        with pytest.raises(ModelError):
            build_digital_mdp(net)

    def test_states_where(self):
        decls = Declarations()
        decls.declare_int("n", 0)
        a = PTA("A", clocks=[])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t",
                   update=[lambda env: env.__setitem__("n", 7)])
        net = PTANetwork()
        net.declarations = decls
        net.add_process("P", a)
        dm = build_digital_mdp(net)
        hits = dm.states_where(lambda names, v, c: v["n"] == 7)
        assert len(hits) == 1

    def test_synchronised_probabilistic_edges_multiply(self):
        # Sender triggers a channel that loses with probability 0.2.
        s = PTA("S", clocks=[])
        s.add_location("go", urgent=True)
        s.add_location("sent")
        s.add_edge("go", "sent", sync=("put", "!"))
        c = PTA("C", clocks=[])
        c.add_location("empty")
        c.add_location("full")
        c.add_prob_edge("empty", [(0.8, "full"), (0.2, "empty")],
                        sync=("put", "?"))
        net = PTANetwork()
        net.add_channel("put")
        net.add_process("S", s)
        net.add_process("C", c)
        dm = build_digital_mdp(net)
        full = dm.location_states("C", "full")
        v = reachability_probability(dm.mdp, full)
        assert v[0] == pytest.approx(0.8)

    def test_branches_into_one_state_merge(self):
        """Two branches that reach the same state become one transition
        carrying their summed probability, in first-branch order, as
        ``MDP.add_action`` merges them."""
        a = PTA("Coin", clocks=["x"])
        a.add_location("flip", invariant=[clk("x", "<=", 1)])
        a.add_location("heads")
        a.add_location("tails")
        a.initial_location = "flip"
        a.add_prob_edge("flip", [(0.3, "heads"), (0.2, "tails"),
                                 (0.5, "heads")],
                        guard=[clk("x", ">=", 1)])
        net = PTANetwork("coin")
        net.add_process("C", a)
        dm = build_digital_mdp(net.freeze())
        heads = dm.location_states("C", "heads")
        tails = dm.location_states("C", "tails")
        [((to_heads, p_heads), (to_tails, p_tails))] = [
            pairs
            for state in dm.location_states("C", "flip")
            for label, pairs, _reward in dm.mdp.actions_of(state)
            if label != "tick"]
        assert to_heads in heads and to_tails in tails
        assert (p_heads, p_tails) == (0.3 + 0.5, 0.2)

    def test_rejects_a_distribution_not_summing_to_one(self):
        """A NaN branch probability passes ``add_prob_edge`` but not
        the builder, which checks each fire's probability sum as
        ``MDP.add_action`` does."""
        with pytest.raises(ModelError, match="sum to nan"):
            build_digital_mdp(coin_pta(math.nan))


class TestOverapproximation:
    def test_branches_become_edges(self):
        net = coin_pta(0.3)
        ta = overapproximate_network(net)
        process = ta.process_by_name("C")
        assert len(process.automaton.edges) == 2

    def test_safety_transfer(self):
        """Heads and tails both reachable in the overapproximation."""
        from repro.mc import EF, LocationIs, Verifier

        ta = overapproximate_network(coin_pta(0.01))
        v = Verifier(ta)
        assert v.check(EF(LocationIs("C", "heads"))).holds
        assert v.check(EF(LocationIs("C", "tails"))).holds


class TestDigitalSimulator:
    def test_coin_frequency(self):
        net = coin_pta(0.7)
        sim = DigitalSimulator(net, rng=1)
        heads = 0
        for _ in range(400):
            run = sim.run(stop=lambda names, v, c: names[0] != "flip")
            if net.location_vector_names(run.final_state.locs)[0] == \
                    "heads":
                heads += 1
        assert 0.6 < heads / 400 < 0.8

    def test_elapsed_time_counted(self):
        net = coin_pta(0.5)
        sim = DigitalSimulator(net, rng=2)
        run = sim.run(stop=lambda names, v, c: names[0] != "flip")
        assert run.elapsed == 1

    def test_max_delay_policy_waits(self):
        # With max-delay policy the retry automaton ticks to the
        # invariant bound before acting.
        net = retry_pta(1.0)
        sim = DigitalSimulator(net, policy="max-delay", rng=3)
        run = sim.run(stop=lambda names, v, c: names[0] == "done")
        assert run.elapsed == 1

    def test_bad_policy(self):
        with pytest.raises(ModelError):
            DigitalSimulator(coin_pta(), policy="warp")

    def test_max_time_stops(self):
        net = retry_pta(0.0001)
        sim = DigitalSimulator(net, rng=4)
        run = sim.run(max_time=5)
        assert run.elapsed >= 5
