"""Tests for the symbolic and discrete-time semantics of networks."""

import pytest

from repro.core import Declarations, ModelError
from repro.ta import (
    Automaton,
    DiscreteSemantics,
    Network,
    ZoneGraph,
    clk,
    discrete_transitions,
)


def ping_pong():
    """Two processes synchronising on a channel with a timing window."""
    sender = Automaton("Sender", clocks=["x"])
    sender.add_location("idle", invariant=[clk("x", "<=", 4)])
    sender.add_location("sent")
    sender.add_edge("idle", "sent", guard=[clk("x", ">=", 2)],
                    sync=("msg", "!"), resets=[("x", 0)])

    receiver = Automaton("Receiver", clocks=["y"])
    receiver.add_location("wait")
    receiver.add_location("got")
    receiver.add_edge("wait", "got", sync=("msg", "?"), resets=[("y", 0)])

    net = Network("pingpong")
    net.add_channel("msg")
    net.add_process("S", sender)
    net.add_process("R", receiver)
    return net.freeze()


class TestZoneGraph:
    def test_initial_is_delay_closed(self):
        # Classic abstraction: lu+ soundly forgets S.idle's x <= 4
        # ceiling (x already tops its only lower guard x >= 2) and
        # frees the dead receiver clock, so the raw zone this test
        # inspects would be wider.
        graph = ZoneGraph(ping_pong(), abstraction="k")
        init = graph.initial()
        # S.idle invariant bounds delay by 4.
        assert init.zone.contains_point((0, 0))
        assert init.zone.contains_point((4, 4))
        assert not init.zone.contains_point((5, 5))

    def test_synchronised_successor(self):
        # Classic abstraction: at (sent, got) both clocks are dead, so
        # the default lu+ abstraction would (soundly) drop the x == y
        # correlation this test observes through the raw zone.
        graph = ZoneGraph(ping_pong(), abstraction="k")
        init = graph.initial()
        succs = graph.successors(init)
        assert len(succs) == 1
        transition, state = succs[0]
        assert transition.channel == "msg"
        assert len(transition.participants) == 2
        names = graph.network.location_vector_names(state.locs)
        assert names == ("sent", "got")
        # x reset, y reset; both advance together unboundedly afterwards.
        assert state.zone.contains_point((0, 0))
        assert state.zone.contains_point((7, 7))
        assert not state.zone.contains_point((1, 0))

    def test_guard_restricts_window(self):
        graph = ZoneGraph(ping_pong())
        init = graph.initial()
        parts = graph.guard_zones(init)
        assert len(parts) == 1
        # Enabled only for x in [2, 4].
        assert parts[0].contains_point((2, 2))
        assert parts[0].contains_point((4, 4))
        assert not parts[0].contains_point((1, 1))

    def test_urgent_location_blocks_delay(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("u", urgent=True)
        a.add_location("done")
        a.add_edge("u", "done")
        net = Network()
        net.add_process("P", a)
        # Classic abstraction: x is never compared, so lu+ would free
        # it and hide the blocked delay observed through the raw zone.
        graph = ZoneGraph(net, abstraction="k")
        init = graph.initial()
        assert init.zone.contains_point((0,))
        assert not init.zone.contains_point((1,))

    def test_committed_priority(self):
        """Only the committed process may move."""
        c = Automaton("C", clocks=[])
        c.add_location("comm", committed=True)
        c.add_location("after")
        c.add_edge("comm", "after")
        other = Automaton("O", clocks=[])
        other.add_location("s")
        other.add_location("t")
        other.add_edge("s", "t")
        net = Network()
        net.add_process("C", c)
        net.add_process("O", other)
        net.freeze()
        transitions = discrete_transitions(
            net, net.initial_locations(), net.initial_valuation())
        assert len(transitions) == 1
        assert transitions[0].participants[0][0].name == "C"

    def test_data_guard_and_update(self):
        a = Automaton("A", clocks=[])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t",
                   data_guard=lambda env: env["n"] < 2,
                   update=[lambda env: env.__setitem__("n", env["n"] + 1)])
        net = Network()
        decls = Declarations()
        decls.declare_int("n", 0)
        net.declarations = decls
        net.add_process("P", a)
        graph = ZoneGraph(net)
        s0 = graph.initial()
        [(_t, s1)] = graph.successors(s0)
        assert s1.valuation["n"] == 1
        # State loops back to t; no further edges.
        assert graph.successors(s1) == []

    def test_broadcast(self):
        tx = Automaton("Tx", clocks=[])
        tx.add_location("a")
        tx.add_location("b")
        tx.add_edge("a", "b", sync=("beat", "!"))
        rx = Automaton("Rx", clocks=[])
        rx.add_location("w")
        rx.add_location("h")
        rx.add_edge("w", "h", sync=("beat", "?"))
        net = Network()
        net.add_channel("beat", broadcast=True)
        net.add_process("T", tx)
        net.add_process("R1", rx)
        net.add_process("R2", rx)
        graph = ZoneGraph(net)
        [(transition, state)] = graph.successors(graph.initial())
        assert transition.broadcast
        assert len(transition.participants) == 3
        assert graph.network.location_vector_names(state.locs) == (
            "b", "h", "h")

    def test_broadcast_receiver_clock_guard_rejected(self):
        tx = Automaton("Tx", clocks=[])
        tx.add_location("a")
        tx.add_location("b")
        tx.add_edge("a", "b", sync=("beat", "!"))
        rx = Automaton("Rx", clocks=["x"])
        rx.add_location("w")
        rx.add_location("h")
        rx.add_edge("w", "h", guard=[clk("x", "<=", 1)], sync=("beat", "?"))
        net = Network()
        net.add_channel("beat", broadcast=True)
        net.add_process("T", tx)
        net.add_process("R", rx)
        graph = ZoneGraph(net)
        with pytest.raises(ModelError):
            graph.successors(graph.initial())


class TestDiscreteSemantics:
    def test_tick_and_fire(self):
        sem = DiscreteSemantics(ping_pong())
        s = sem.initial()
        assert sem.can_tick(s)
        # Guard x >= 2 blocks the sync initially.
        assert sem.action_successors(s) == []
        s = sem.tick(sem.tick(s))
        assert s.clocks[1] == 2
        actions = sem.action_successors(s)
        assert len(actions) == 1
        _, succ = actions[0]
        assert succ.clocks[1] == 0 and succ.clocks[2] == 0

    def test_invariant_blocks_tick(self):
        sem = DiscreteSemantics(ping_pong())
        s = sem.initial()
        for _ in range(4):
            s = sem.tick(s)
        assert s.clocks[1] == 4
        assert not sem.can_tick(s)

    def test_clock_saturation(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t", guard=[clk("x", ">=", 3)])
        net = Network()
        net.add_process("P", a)
        sem = DiscreteSemantics(net)
        s = sem.initial()
        for _ in range(10):
            s = sem.tick(s)
        assert s.clocks[1] == 4  # saturated at max constant + 1

    def test_rejects_strict_guards(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t", guard=[clk("x", "<", 3)])
        net = Network()
        net.add_process("P", a)
        with pytest.raises(ModelError):
            DiscreteSemantics(net)

    def test_rejects_diagonals(self):
        a = Automaton("A", clocks=["x", "y"])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t", guard=[clk("x", "<=", 3, other="y")])
        net = Network()
        net.add_process("P", a)
        with pytest.raises(ModelError):
            DiscreteSemantics(net)

    def test_successors_include_tick(self):
        sem = DiscreteSemantics(ping_pong())
        succs = sem.successors(sem.initial())
        assert any(t == "tick" for t, _s in succs)
