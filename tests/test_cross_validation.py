"""Cross-engine validation on randomly generated models.

The repository contains three independent semantics for timed automata
(zones, integer time, stochastic simulation) and two probabilistic
engines (exact MDP, simulation).  These property tests generate random
small models and check that the engines agree — the strongest internal
consistency evidence short of a mechanised proof.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mc import EF, LocationIs, Verifier
from repro.mdp import reachability_probability
from repro.pta import PTA, PTANetwork, build_digital_mdp, DigitalSimulator
from repro.ta import Automaton, DiscreteSemantics, Network, clk
from repro.ta.discrete import DiscreteState
from repro.ta.transitions import (
    delay_forbidden,
    discrete_transitions,
    has_urgent_sync,
)


# -- random closed single-clock automata ----------------------------------------

@st.composite
def random_closed_ta(draw):
    """A random closed, diagonal-free, single-clock automaton."""
    n_locs = draw(st.integers(min_value=2, max_value=5))
    automaton = Automaton("R", clocks=["x"])
    for i in range(n_locs):
        if draw(st.booleans()):
            bound = draw(st.integers(min_value=1, max_value=6))
            automaton.add_location(f"L{i}",
                                   invariant=[clk("x", "<=", bound)])
        else:
            automaton.add_location(f"L{i}")
    n_edges = draw(st.integers(min_value=1, max_value=7))
    for _ in range(n_edges):
        source = f"L{draw(st.integers(0, n_locs - 1))}"
        target = f"L{draw(st.integers(0, n_locs - 1))}"
        guard = []
        if draw(st.booleans()):
            op = draw(st.sampled_from([">=", "<="]))
            guard.append(clk("x", op, draw(st.integers(0, 6))))
        resets = [("x", 0)] if draw(st.booleans()) else []
        automaton.add_edge(source, target, guard=guard, resets=resets)
    return automaton


def reachable_locations_zone(automaton):
    network = Network()
    network.add_process("R", automaton)
    verifier = Verifier(network)
    out = set()
    for name in automaton.locations:
        if verifier.check(EF(LocationIs("R", name))).holds:
            out.add(name)
    return out


def reachable_locations_discrete(automaton):
    network = Network()
    network.add_process("R", automaton)
    semantics = DiscreteSemantics(network)
    initial = semantics.initial()
    seen = {initial.key()}
    out = set()
    queue = [initial]
    while queue:
        state = queue.pop()
        out.add(network.location_vector_names(state.locs)[0])
        for _step, succ in semantics.successors(state):
            if succ.key() not in seen:
                seen.add(succ.key())
                queue.append(succ)
    return out


def reachable_locations_digital(automaton):
    network = Network()
    network.add_process("R", automaton)
    digital = build_digital_mdp(network)
    return {network.location_vector_names(state.locs)[0]
            for state in digital.states}


@settings(max_examples=60, deadline=None)
@given(random_closed_ta())
def test_zone_and_discrete_reachability_agree(automaton):
    """For closed automata, integer time preserves location
    reachability (the soundness claim behind tiga/cora/tron), and the
    digital-clocks MDP reaches the same locations."""
    zone = reachable_locations_zone(automaton)
    assert zone == reachable_locations_discrete(automaton)
    assert zone == reachable_locations_digital(automaton)


def oracle_invariants_hold(network, locs, clocks):
    return all(atom.holds(clocks[process.resolve_clock(atom.clock)])
               for process, loc in zip(network.processes, locs)
               for atom in process.location(loc).invariant)


def oracle_step(network, state):
    """One integer-time step computed per state, without any memo:
    candidate transitions, clock guards, firing and target invariants,
    then the tick.  Returns ``(actions, ticked_clocks)``."""
    actions = []
    for transition in discrete_transitions(network, state.locs,
                                           state.valuation):
        if not all(atom.holds(state.clocks[process.resolve_clock(
                atom.clock)]) for process, atom in
                transition.clock_guard_atoms()):
            continue
        clocks = list(state.clocks)
        for index, value in transition.clock_resets():
            clocks[index] = value
        succ = DiscreteState(transition.target_locations(state.locs),
                             transition.apply_updates(state.valuation),
                             tuple(clocks))
        if oracle_invariants_hold(network, succ.locs, succ.clocks):
            actions.append((transition.describe(), succ.key()))
    ticked = None
    if not (delay_forbidden(network, state.locs)
            or has_urgent_sync(network, state.locs, state.valuation)):
        caps = [c + 1 for c in network.max_constants()]
        clocks = (0,) + tuple(min(v + 1, cap)
                              for v, cap in zip(state.clocks[1:], caps[1:]))
        if oracle_invariants_hold(network, state.locs, clocks):
            ticked = clocks
    return actions, ticked


@settings(max_examples=60, deadline=None)
@given(random_closed_ta())
def test_memoised_discrete_steps_match_per_state_oracle(automaton):
    """Every reachable state's action and tick successors equal the
    unmemoised per-state computation."""
    network = Network()
    network.add_process("R", automaton)
    semantics = DiscreteSemantics(network)
    initial = semantics.initial()
    seen = {initial.key()}
    queue = [initial]
    while queue:
        state = queue.pop()
        actions, ticked = oracle_step(network, state)
        assert [(t.describe(), succ.key()) for t, succ
                in semantics.action_successors(state)] == actions
        tick = semantics.tick(state)
        assert (tick.clocks if tick is not None else None) == ticked
        assert semantics.can_tick(state) == (ticked is not None)
        for _step, succ in semantics.successors(state):
            if succ.key() not in seen:
                seen.add(succ.key())
                queue.append(succ)


# -- random acyclic PTA: exact vs simulated probabilities -------------------------

@st.composite
def random_dag_pta(draw):
    """A layered PTA: probabilistic branching downward, no cycles."""
    layers = draw(st.integers(min_value=2, max_value=4))
    automaton = PTA("R", clocks=["x"])
    names = []
    for layer in range(layers):
        name = f"N{layer}"
        names.append(name)
        automaton.add_location(
            name, invariant=[clk("x", "<=", 1)] if layer < layers - 1
            else ())
    automaton.initial_location = names[0]
    for layer in range(layers - 1):
        weight = draw(st.integers(min_value=1, max_value=9))
        stay_target = names[layer + 1]
        skip_target = names[min(layer + 2, layers - 1)]
        automaton.add_prob_edge(
            names[layer],
            [(weight / 10, stay_target, [("x", 0)]),
             (1 - weight / 10, skip_target, [("x", 0)])],
            guard=[clk("x", ">=", 1)])
    return automaton, names[-1]


@settings(max_examples=20, deadline=None)
@given(random_dag_pta())
def test_digital_mdp_matches_simulation(case):
    automaton, final = case
    network = PTANetwork()
    network.add_process("R", automaton)
    digital = build_digital_mdp(network)
    exact = reachability_probability(
        digital.mdp, digital.location_states("R", final))[0]
    # The DAG always funnels into the last layer.
    assert exact == pytest.approx(1.0)
    simulator = DigitalSimulator(network, rng=9)
    run = simulator.run(
        stop=lambda names, v, c: names[0] == final)
    assert network.location_vector_names(run.final_state.locs)[0] == final


# -- the train gate under all engines ----------------------------------------------

class TestTrainGateCrossValidation:
    def test_smc_runs_respect_model_checked_safety(self):
        """5 random SMC runs never visit a state the model checker
        proved unreachable (two trains crossing)."""
        from repro.models.traingate import make_traingate
        from repro.smc import StochasticSimulator

        network = make_traingate(2)
        verifier = Verifier(network)
        assert not verifier.check(
            "E<> Train(0).Cross && Train(1).Cross").holds

        simulator = StochasticSimulator(network, rng=5)

        def check(t, names, valuation, clocks):
            assert not (names[0] == "Cross" and names[1] == "Cross")

        for _ in range(5):
            simulator.run(max_time=80, observer=check)

    def test_discrete_and_zone_agree_on_traingate(self):
        from repro.models.traingate import make_traingate

        network = make_traingate(2)
        semantics = DiscreteSemantics(network)
        initial = semantics.initial()
        seen = {initial.key()}
        queue = [initial]
        crossing = set()
        while queue:
            state = queue.pop()
            names = network.location_vector_names(state.locs)
            crossing.add((names[0] == "Cross", names[1] == "Cross"))
            for _step, succ in semantics.successors(state):
                if succ.key() not in seen:
                    seen.add(succ.key())
                    queue.append(succ)
        assert (True, True) not in crossing
        assert (True, False) in crossing
