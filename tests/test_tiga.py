"""Tests for timed games: solver correctness on hand-crafted games and
the paper's train game (Figs. 2-3)."""

import hashlib

import pytest

from repro.core import SearchLimitError
from repro.models.traingame import (
    crossing_predicate,
    make_traingame,
    safety_predicate,
)
from repro.ta import Automaton, DiscreteSemantics, Network, clk
from repro.tiga import (
    GameGraph,
    controller_wins_reachability,
    controller_wins_safety,
    execute,
    solve_reachability,
)


def single_game(automaton):
    net = Network()
    net.add_process("P", automaton)
    return net


class TestSimpleGames:
    def test_controller_reaches_goal_directly(self):
        a = Automaton("A", clocks=[])
        a.add_location("s")
        a.add_location("goal")
        a.add_edge("s", "goal", controllable=True)
        graph = GameGraph(single_game(a))
        wins, strategy = controller_wins_reachability(
            graph, lambda names, v, c: names[0] == "goal")
        assert wins
        result = execute(strategy, rng=1)
        assert result.reached_goal

    def test_environment_can_divert(self):
        """Env can move s to a sink before the controller acts."""
        a = Automaton("A", clocks=[])
        a.add_location("s")
        a.add_location("goal")
        a.add_location("sink")
        a.add_edge("s", "goal", controllable=True)
        a.add_edge("s", "sink", controllable=False)
        graph = GameGraph(single_game(a))
        wins, _strategy = controller_wins_reachability(
            graph, lambda names, v, c: names[0] == "goal")
        assert not wins

    def test_environment_forced_by_invariant(self):
        """No controller edge at all, but the invariant forces the
        environment onto the goal."""
        a = Automaton("A", clocks=["x"])
        a.add_location("s", invariant=[clk("x", "<=", 2)])
        a.add_location("goal")
        a.add_edge("s", "goal", guard=[clk("x", ">=", 2)],
                   controllable=False)
        graph = GameGraph(single_game(a))
        wins, strategy = controller_wins_reachability(
            graph, lambda names, v, c: names[0] == "goal")
        assert wins
        assert execute(strategy, rng=2).reached_goal

    def test_safety_needs_preemption(self):
        """Time ticking into x == 3 enables a fatal env edge forever;
        the controller must fire its own edge before then."""
        a = Automaton("A", clocks=["x"])
        a.add_location("s")
        a.add_location("bad")
        a.add_location("haven")
        a.add_edge("s", "bad", guard=[clk("x", ">=", 3)],
                   controllable=False)
        a.add_edge("s", "haven", guard=[clk("x", "<=", 2)],
                   controllable=True)
        graph = GameGraph(single_game(a))
        wins, strategy = controller_wins_safety(
            graph, lambda names, v, c: names[0] != "bad")
        assert wins
        safe = graph.satisfying(lambda names, v, c: names[0] != "bad")
        for seed in range(30):
            assert execute(strategy, rng=seed, max_steps=50,
                           safe=safe).stayed_safe

    def test_safety_unwinnable_when_env_unavoidable(self):
        a = Automaton("A", clocks=[])
        a.add_location("s")
        a.add_location("bad")
        a.add_edge("s", "bad", controllable=False)
        graph = GameGraph(single_game(a))
        wins, _strategy = controller_wins_safety(
            graph, lambda names, v, c: names[0] != "bad")
        assert not wins

    def test_goal_state_strategy_has_no_move(self):
        a = Automaton("A", clocks=[])
        a.add_location("goal")
        graph = GameGraph(single_game(a))
        winning, strategy = solve_reachability(
            graph, graph.satisfying(lambda n, v, c: n[0] == "goal"))
        assert 0 in winning
        assert strategy.move(0) is None


class TestArenaCap:
    def test_cap_raises_search_limit_error(self):
        with pytest.raises(SearchLimitError) as excinfo:
            GameGraph(make_traingame(2), max_states=50)
        assert excinfo.value.limit == 50
        assert "50 states" in str(excinfo.value)


class TestTrainGame:
    """The paper's synthesis experiment (Figs. 2-3)."""

    @pytest.fixture(scope="class")
    def graph(self):
        return GameGraph(make_traingame(2))

    def test_arena_size_reasonable(self, graph):
        assert 1000 < graph.num_states < 100000

    def test_safety_strategy_exists(self, graph):
        wins, strategy = controller_wins_safety(
            graph, safety_predicate(2))
        assert wins
        assert len(strategy.winning) > 0

    def test_safety_strategy_validates_in_closed_loop(self, graph):
        _wins, strategy = controller_wins_safety(
            graph, safety_predicate(2))
        safe = graph.satisfying(safety_predicate(2))
        for seed in range(40):
            result = execute(strategy, rng=seed, max_steps=200, safe=safe)
            assert result.stayed_safe, f"seed {seed}"

    def test_approaching_train_can_be_forced_to_cross(self):
        net = make_traingame(2)
        semantics = DiscreteSemantics(net)
        appr = None
        for transition, succ in semantics.action_successors(
                semantics.initial()):
            if transition.channel == "appr_0":
                appr = succ
        assert appr is not None
        graph = GameGraph(net, initial_state=appr)
        wins, strategy = controller_wins_reachability(
            graph, crossing_predicate(0))
        assert wins
        for seed in range(20):
            assert execute(strategy, rng=seed,
                           max_steps=1000).reached_goal, f"seed {seed}"

    def test_no_strategy_to_force_two_crossings(self, graph):
        """Sanity: the controller cannot *force* a safety violation
        (only trains enter the bridge, uncontrollably)."""
        wins, _strategy = controller_wins_reachability(
            graph,
            lambda names, v, c:
                sum(1 for n in names[:2] if n == "Cross") == 2)
        assert not wins

    def test_scaled_game_agrees(self):
        graph = GameGraph(make_traingame(2, scale=2))
        wins, _s = controller_wins_safety(graph, safety_predicate(2))
        assert wins


def arena_digest(graph):
    """sha256 over the state keys in index order, each state's
    controller and environment moves as ``(describe(), target)`` and its
    tick target."""
    digest = hashlib.sha256()
    for i, state in enumerate(graph.states):
        row = (state.key(),
               [(t.describe(), j) for t, j in graph.ctrl[i]],
               [(t.describe(), j) for t, j in graph.unc[i]],
               graph.tick[i])
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestGoldenArena:
    """The train-game arenas, pinned state by state to the ones the
    unmemoised integer-time semantics built."""

    @pytest.mark.parametrize("trains, scale, states, digest", [
        (2, 2, 4096,
         "5e1eb6451caf2248dfb9b433a130d78c72f7d4e9a8909cc1436421c48bc0f7dc"),
        (3, 6, 17576,
         "0344cc3be34c2ecf099338190f4d5e56bf853809e553e08524600f317c35e514"),
    ])
    def test_arena_unchanged(self, trains, scale, states, digest):
        graph = GameGraph(make_traingame(trains, scale=scale))
        assert graph.num_states == states
        assert arena_digest(graph) == digest
        if (trains, scale) == (3, 6):
            # 17,576 states share 125 discrete configurations.
            assert len(graph.semantics._configs) == 125
