"""Edge-case coverage across engines: urgent channels, timelocks,
search cutoffs, and error paths that the mainline tests do not hit."""

import pytest

from repro.core import (
    AnalysisError,
    Declarations,
    EvaluationError,
    ModelError,
)
from repro.mc import EF, LocationIs, Verifier, explore
from repro.mdp import MDP, reachability_probability
from repro.pta import PTA, DigitalSimulator, PTANetwork, build_digital_mdp
from repro.smc import StochasticSimulator
from repro.ta import (
    Automaton,
    DiscreteSemantics,
    Network,
    ZoneGraph,
    clk,
)
from repro.tiga import GameGraph


def network_of(*automata, channels=(), urgent_channels=(), decls=None):
    net = Network()
    if decls is not None:
        net.declarations = decls
    for channel in channels:
        net.add_channel(channel)
    for channel in urgent_channels:
        net.add_channel(channel, urgent=True)
    for index, automaton in enumerate(automata):
        net.add_process(automaton.name, automaton)
    return net


class TestUrgentChannels:
    def _pair(self, urgent):
        sender = Automaton("S", clocks=["x"])
        sender.add_location("s0")
        sender.add_location("s1")
        sender.add_edge("s0", "s1", sync=("c", "!"))
        receiver = Automaton("R", clocks=[])
        receiver.add_location("r0")
        receiver.add_location("r1")
        receiver.add_edge("r0", "r1", sync=("c", "?"))
        return network_of(
            sender, receiver,
            channels=() if urgent else ("c",),
            urgent_channels=("c",) if urgent else ())

    def test_urgent_sync_blocks_delay(self):
        # Classic abstraction: x is never compared, so the default lu+
        # abstraction would (soundly) forget it and hide the blocked
        # delay this test observes through the raw zone.
        graph = ZoneGraph(self._pair(urgent=True), abstraction="k")
        init = graph.initial()
        # No delay allowed: x stays 0 in the initial state.
        assert init.zone.contains_point((0,))
        assert not init.zone.contains_point((1,))

    def test_plain_sync_allows_delay(self):
        graph = ZoneGraph(self._pair(urgent=False))
        init = graph.initial()
        assert init.zone.contains_point((5,))

    def test_urgent_edge_with_clock_guard_rejected(self):
        sender = Automaton("S", clocks=["x"])
        sender.add_location("s0")
        sender.add_location("s1")
        sender.add_edge("s0", "s1", guard=[clk("x", ">=", 1)],
                        sync=("c", "!"))
        receiver = Automaton("R", clocks=[])
        receiver.add_location("r0")
        receiver.add_location("r1")
        receiver.add_edge("r0", "r1", sync=("c", "?"))
        net = network_of(sender, receiver, urgent_channels=("c",))
        graph = ZoneGraph(net)
        with pytest.raises(ModelError):
            graph.successors(graph.initial())

    def test_discrete_semantics_respects_urgent_sync(self):
        semantics = DiscreteSemantics(self._pair(urgent=True))
        assert not semantics.can_tick(semantics.initial())


class TestDiscreteLazyChecks:
    """The integer-time memo computes the no-delay flag and a
    transition's post-state lazily, so no state raises an error it
    would not raise on its own."""

    def test_clock_disabled_edge_never_runs_its_update(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t", guard=[clk("x", ">=", 2)],
                   update=[lambda env: env.__setitem__("n", 5)])
        decls = Declarations()
        decls.declare_int("n", 0, lo=0, hi=1)
        semantics = DiscreteSemantics(network_of(a, decls=decls))
        state = semantics.initial()
        assert semantics.action_successors(state) == []
        state = semantics.tick(state)
        assert semantics.action_successors(state) == []
        state = semantics.tick(state)
        # The guard now holds: the out-of-range update runs and fails.
        with pytest.raises(EvaluationError):
            semantics.action_successors(state)

    def test_urgent_clock_guard_error_surfaces_on_tick(self):
        sender = Automaton("S", clocks=["x"])
        sender.add_location("s0")
        sender.add_location("s1")
        sender.add_edge("s0", "s1", guard=[clk("x", ">=", 1)],
                        sync=("c", "!"))
        receiver = Automaton("R", clocks=[])
        receiver.add_location("r0")
        receiver.add_location("r1")
        receiver.add_edge("r0", "r1", sync=("c", "?"))
        semantics = DiscreteSemantics(
            network_of(sender, receiver, urgent_channels=("c",)))
        initial = semantics.initial()
        assert semantics.action_successors(initial) == []
        for _ in range(2):  # a failed check is not memoised
            with pytest.raises(ModelError):
                semantics.can_tick(initial)
        with pytest.raises(ModelError):
            semantics.tick(initial)


class TestTimedSemanticsAgree:
    def test_clock_disabled_update_never_runs(self):
        """``s`` (invariant ``x <= 1``) has an edge to ``t`` guarded by
        ``x >= 2`` whose update sets ``n`` (declared in ``[0, 1]``) to
        5.  The edge can never fire, so no route may run the update,
        and every route finds only ``s``."""
        a = Automaton("A", clocks=["x"])
        a.add_location("s", invariant=[clk("x", "<=", 1)])
        a.add_location("t")
        a.add_edge("s", "t", guard=[clk("x", ">=", 2)],
                   update=[lambda env: env.__setitem__("n", 5)])
        decls = Declarations()
        decls.declare_int("n", 0, lo=0, hi=1)
        network = network_of(a, decls=decls)

        zone_locations = set()
        explore(ZoneGraph(network), on_state=lambda state: (
            zone_locations.add(state.locs)))
        assert zone_locations == {(0,)}

        semantics = DiscreteSemantics(network)
        state = semantics.initial()
        assert semantics.action_successors(state) == []
        state = semantics.tick(state)
        assert semantics.successors(state) == []

        digital = build_digital_mdp(network)
        assert {state.locs for state in digital.states} == {(0,)}
        assert digital.mdp.num_states == 2

        run = DigitalSimulator(network, rng=1).run(max_time=10)
        assert run.final_state.locs == (0,)
        assert run.elapsed == 1

    def test_timed_automaton_views_reject_probabilistic_edges(self):
        """``s -> {0.5: t (reset x), 0.5: u}`` has no timed-automaton
        meaning: neither the integer-time views nor the game arena may
        take its first branch."""
        a = PTA("P", clocks=["x"])
        a.add_location("s")
        a.add_location("t")
        a.add_location("u")
        a.initial_location = "s"
        a.add_prob_edge("s", [(0.5, "t", [("x", 0)]), (0.5, "u")])
        network = PTANetwork()
        network.add_process("P", a)
        semantics = DiscreteSemantics(network)
        with pytest.raises(ModelError, match="probabilistic transition"):
            semantics.action_successors(semantics.initial())
        with pytest.raises(ModelError, match="probabilistic transition"):
            GameGraph(network)


class TestTimelocks:
    def test_smc_run_ends_on_timelock(self):
        """Invariant expires with no enabled action: the run stops."""
        a = Automaton("A", clocks=["x"])
        a.add_location("trap", invariant=[clk("x", "<=", 2)])
        net = network_of(a)
        simulator = StochasticSimulator(net, rng=1)
        elapsed = simulator.run(max_time=100)
        assert elapsed <= 2.0 + 1e-9

    def test_discrete_timelock_has_no_successors(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("trap", invariant=[clk("x", "<=", 0)])
        semantics = DiscreteSemantics(network_of(a))
        assert semantics.successors(semantics.initial()) == []


class TestSearchCutoffs:
    def _unbounded_counter(self):
        a = Automaton("A", clocks=[])
        a.add_location("s")
        a.add_edge("s", "s",
                   update=[lambda env: env.__setitem__(
                       "n", env["n"] + 1)])
        decls = Declarations()
        decls.declare_int("n", 0)
        return network_of(a, decls=decls)

    def test_explore_max_states(self):
        graph = ZoneGraph(self._unbounded_counter())
        result = explore(graph, goal=lambda s: False, max_states=50)
        assert not result.found
        assert result.states_explored <= 51

    def test_verifier_max_states_liveness(self):
        from repro.core.errors import SearchLimitError
        from repro.mc import AF, DataPred

        verifier = Verifier(self._unbounded_counter(), max_states=100)
        with pytest.raises(SearchLimitError) as exc_info:
            verifier.check(AF(DataPred(lambda env: env["n"] > 1000)))
        assert exc_info.value.limit == 100
        # Backwards compatibility: pre-existing handlers caught
        # MemoryError, which SearchLimitError still is.
        assert isinstance(exc_info.value, MemoryError)


class TestInclusionSubsumption:
    def test_inclusion_reduces_state_count(self):
        """Resets from different delays produce nested zones."""
        a = Automaton("A", clocks=["x", "y"])
        a.add_location("s0", invariant=[clk("x", "<=", 5)])
        a.add_location("s1")
        a.add_location("s2")
        a.add_edge("s0", "s1", resets=[("x", 0)])
        a.add_edge("s1", "s2", guard=[clk("y", ">=", 1)])
        net = network_of(a)
        with_inclusion = explore(ZoneGraph(net), use_inclusion=True)
        without = explore(ZoneGraph(net), use_inclusion=False)
        assert with_inclusion.states_stored <= without.states_stored

    def test_both_find_same_reachable_locations(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s0", invariant=[clk("x", "<=", 3)])
        a.add_location("s1")
        a.add_edge("s0", "s1", guard=[clk("x", ">=", 1)])
        net = network_of(a)
        for inclusion in (True, False):
            verifier = Verifier(net, use_inclusion=inclusion)
            assert verifier.check(EF(LocationIs("A", "s1"))).holds


class TestMDPErrorPaths:
    def test_value_iteration_nonconvergence_guard(self):
        from repro.mdp.graph import topological_value_iteration

        import numpy as np

        m = MDP()
        s = m.add_state()
        m.add_action(s, [(1.0, s)], reward=1.0)
        m.finalize()
        values = np.zeros(1)
        frozen = np.zeros(1, dtype=bool)
        # Accumulating reward on a loop diverges: the iteration guard
        # must fire rather than spin forever.
        with pytest.raises(AnalysisError):
            topological_value_iteration(
                m, values, frozen, True, rewards=m.action_rewards,
                epsilon=1e-12, max_iterations=3)

    def test_reachability_on_unfinalized_mdp_finalizes(self):
        m = MDP()
        s = m.add_state()
        goal = m.add_state()
        m.add_action(s, [(1.0, goal)])
        values = reachability_probability(m, {goal})
        assert values[s] == pytest.approx(1.0)


class TestBroadcastDataGuards:
    def test_receivers_filtered_by_data_guard(self):
        from repro.ta import discrete_transitions

        tx = Automaton("T", clocks=[])
        tx.add_location("a")
        tx.add_location("b")
        tx.add_edge("a", "b", sync=("beat", "!"))
        rx_template = []
        net = Network()
        net.add_channel("beat", broadcast=True)
        net.add_process("T", tx)
        for name, ready in (("R1", True), ("R2", False)):
            rx = Automaton(name, clocks=[])
            rx.add_location("w")
            rx.add_location("h")
            rx.add_edge("w", "h", sync=("beat", "?"),
                        data_guard=lambda env, r=ready: r)
            net.add_process(name, rx)
        net.freeze()
        [transition] = discrete_transitions(
            net, net.initial_locations(), net.initial_valuation())
        participants = [p.name for p, _e in transition.participants]
        assert participants == ["T", "R1"]  # R2's guard is false


class TestECDARNetworks:
    def test_refinement_accepts_networks(self):
        """check_refinement also works on whole networks."""
        from repro.ecdar import check_refinement

        a = Automaton("A", clocks=[])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t", label="out")
        net1 = network_of(a)
        a2 = Automaton("A", clocks=[])
        a2.add_location("s")
        a2.add_location("t")
        a2.add_edge("s", "t", label="out")
        net2 = network_of(a2)
        assert check_refinement(net1, net2, [], ["out"])
