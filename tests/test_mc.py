"""Tests for the model checker on small hand-built automata and on the
paper's train-gate example (the verification column of Section II-a)."""

import pytest

from repro.core import Declarations, QueryError
from repro.mc import (
    AF,
    AG,
    And,
    ClockPred,
    DataPred,
    Deadlock,
    EF,
    EG,
    LeadsTo,
    LocationIs,
    Not,
    Or,
    Verifier,
    forall,
)
from repro.models.traingate import make_traingate
from repro.ta import Automaton, Network, clk


def single(automaton, decls=None):
    net = Network()
    if decls is not None:
        net.declarations = decls
    net.add_process("P", automaton)
    return net


def linear_automaton():
    """s0 -> s1 -> s2, with timing: reach s2 between 2 and 5."""
    a = Automaton("A", clocks=["x"])
    a.add_location("s0", invariant=[clk("x", "<=", 3)])
    a.add_location("s1", invariant=[clk("x", "<=", 5)])
    a.add_location("s2")
    a.add_edge("s0", "s1", guard=[clk("x", ">=", 1)])
    a.add_edge("s1", "s2", guard=[clk("x", ">=", 2)])
    return a


class TestReachability:
    def test_ef_location(self):
        v = Verifier(single(linear_automaton()))
        assert v.check(EF(LocationIs("P", "s2"))).holds

    def test_ef_unreachable(self):
        a = linear_automaton()
        a.add_location("island")
        v = Verifier(single(a))
        assert not v.check(EF(LocationIs("P", "island"))).holds

    def test_ef_clock_constraint(self):
        v = Verifier(single(linear_automaton()))
        # s2 entered with x in [2, 5]; x then grows unboundedly.
        assert v.check(EF(And(LocationIs("P", "s2"),
                              ClockPred("P", clk("x", "<=", 2))))).holds
        # But never with x < 2.
        assert not v.check(
            EF(And(LocationIs("P", "s2"),
                   ClockPred("P", clk("x", "<", 2))))).holds

    def test_ag(self):
        v = Verifier(single(linear_automaton()))
        assert v.check(AG(Or(LocationIs("P", "s0"), LocationIs("P", "s1"),
                             LocationIs("P", "s2")))).holds
        assert not v.check(AG(Not(LocationIs("P", "s2")))).holds

    def test_trace_returned(self):
        v = Verifier(single(linear_automaton()))
        r = v.check(EF(LocationIs("P", "s2")))
        assert r.trace is not None
        assert len(r.trace) == 3  # initial, s1, s2
        assert r.trace[0][0] is None

    def test_data_formula(self):
        a = Automaton("A", clocks=[])
        a.add_location("s")
        a.add_edge("s", "s",
                   data_guard=lambda env: env["n"] < 3,
                   update=[lambda env: env.__setitem__("n", env["n"] + 1)])
        decls = Declarations()
        decls.declare_int("n", 0)
        v = Verifier(single(a, decls))
        from repro.core import Var
        assert v.check(EF(DataPred(Var("n").eq(3)))).holds
        assert not v.check(EF(DataPred(Var("n").eq(4)))).holds


class TestDeadlock:
    def test_obvious_deadlock(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s0", invariant=[clk("x", "<=", 3)])
        # No edges at all: time stops at x == 3.
        v = Verifier(single(a))
        assert not v.deadlock_free().holds

    def test_unbounded_idle_is_not_deadlock_free(self):
        # UPPAAL counts "no action ever enabled" as a deadlock even if
        # time can diverge.
        a = Automaton("A", clocks=["x"])
        a.add_location("s0")
        v = Verifier(single(a))
        assert not v.deadlock_free().holds

    def test_guard_window_passed(self):
        """A guard whose window can be missed: x in [2,3] but the
        invariant allows waiting to 5 -- the state has deadlocked points
        only if delaying past the window is possible without any other
        option.  Since the edge window is reachable by delaying, points
        past it (x > 3) deadlock."""
        a = Automaton("A", clocks=["x"])
        a.add_location("s0")  # no invariant: can delay past the window
        a.add_location("s1")
        a.add_edge("s0", "s1", guard=[clk("x", "<=", 3)])
        v = Verifier(single(a))
        assert not v.deadlock_free().holds

    def test_deadlock_free_loop(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s0", invariant=[clk("x", "<=", 2)])
        a.add_location("s1", invariant=[clk("x", "<=", 2)])
        a.add_edge("s0", "s1", resets=[("x", 0)])
        a.add_edge("s1", "s0", resets=[("x", 0)])
        v = Verifier(single(a))
        assert v.deadlock_free().holds

    def test_ef_deadlock_query(self):
        a = Automaton("A", clocks=[])
        a.add_location("s0")
        v = Verifier(single(a))
        assert v.check(EF(Deadlock())).holds

    def test_deadlock_atom_must_be_alone(self):
        a = Automaton("A", clocks=[])
        a.add_location("s0")
        v = Verifier(single(a))
        with pytest.raises(QueryError):
            v.check(EF(And(Deadlock(), LocationIs("P", "s0"))))

    @pytest.mark.parametrize("query", [
        AF(Deadlock()),
        EG(Not(Deadlock())),
        LeadsTo(LocationIs("Train(0)", "Appr"), Deadlock()),
    ], ids=["af", "eg", "leadsto"])
    def test_deadlock_atom_rejected_in_liveness_before_search(self, query):
        # A budget far below the graph size: the query must fail on its
        # shape, not on the search limit, and build no graph.
        v = Verifier(make_traingate(3), max_states=50)
        with pytest.raises(QueryError, match="may only appear alone"):
            v.check(query)
        assert v._full_graph is None


class TestLiveness:
    def _choice(self):
        """s0 can go to a 'good' sink or loop forever in 'bad'."""
        a = Automaton("A", clocks=[])
        a.add_location("s0")
        a.add_location("good")
        a.add_location("bad")
        a.add_edge("s0", "good")
        a.add_edge("s0", "bad")
        a.add_edge("bad", "bad")
        a.add_edge("good", "good")
        return a

    def test_af_fails_with_escape(self):
        v = Verifier(single(self._choice()))
        assert not v.check(AF(LocationIs("P", "good"))).holds

    def test_af_holds_when_forced(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s0", invariant=[clk("x", "<=", 2)])
        a.add_location("done")
        a.add_edge("s0", "done")
        a.add_edge("done", "done")
        v = Verifier(single(a))
        assert v.check(AF(LocationIs("P", "done"))).holds

    def test_eg(self):
        v = Verifier(single(self._choice()))
        assert v.check(EG(Not(LocationIs("P", "good")))).holds
        assert not v.check(EG(LocationIs("P", "good"))).holds

    def test_leadsto(self):
        a = Automaton("A", clocks=[])
        a.add_location("idle")
        a.add_location("req")
        a.add_location("ack")
        a.add_edge("idle", "req")
        a.add_edge("req", "ack")
        a.add_edge("ack", "idle")
        v = Verifier(single(a))
        assert v.check(LeadsTo(LocationIs("P", "req"),
                               LocationIs("P", "ack"))).holds
        # Like UPPAAL, leads-to assumes action progress: a run idling
        # forever in `idle` (which has an enabled action) is not a
        # counterexample, so this forced cycle satisfies the property.
        assert v.check(LeadsTo(LocationIs("P", "idle"),
                               LocationIs("P", "req"))).holds

    def test_leadsto_counterexample_detour(self):
        a = self._choice()
        v = Verifier(single(a))
        assert not v.check(LeadsTo(LocationIs("P", "s0"),
                                   LocationIs("P", "good"))).holds


class TestTrainGate:
    """The three verification properties of the paper, Section II-a."""

    @pytest.fixture(scope="class")
    def verifier(self):
        return Verifier(make_traingate(3))

    def test_safety_mutual_exclusion(self, verifier):
        n = 3
        safety = AG(forall(
            [(i, j) for i in range(n) for j in range(n)],
            lambda ij: Not(And(LocationIs(f"Train({ij[0]})", "Cross"),
                               LocationIs(f"Train({ij[1]})", "Cross")))
            if ij[0] != ij[1] else
            Not(And(LocationIs("Gate", "Free"),
                    LocationIs(f"Train({ij[0]})", "Cross")))))
        assert verifier.check(safety).holds

    def test_liveness_every_train_crosses(self, verifier):
        for i in range(3):
            q = LeadsTo(LocationIs(f"Train({i})", "Appr"),
                        LocationIs(f"Train({i})", "Cross"))
            assert verifier.check(q).holds, f"train {i}"

    def test_no_deadlock(self, verifier):
        assert verifier.deadlock_free().holds

    def test_some_train_can_cross(self, verifier):
        assert verifier.check(EF(LocationIs("Train(0)", "Cross"))).holds

    def test_queue_can_fill(self, verifier):
        assert verifier.check(
            EF(DataPred(lambda env: env["len"] == 2))).holds


class TestSupInf:
    def test_sup_inf_queue_length(self):
        verifier = Verifier(make_traingate(2))
        assert verifier.sup(lambda val: val["len"]) == 2
        assert verifier.inf(lambda val: val["len"]) == 0
