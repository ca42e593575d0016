"""Tests for the MODEST subset: lexer, parser, flattening, and the
three toolset backends on small models (including the paper's Fig. 5)."""

import pytest

from repro.core import ModelError, ParseError, QueryError
from repro.modest import (
    ActionPrefix,
    Alt,
    Emax,
    Interval,
    Invariant,
    Loop,
    Pmax,
    Reach,
    Sequence,
    When,
    flatten_model,
    mcpta,
    mctau,
    modes,
    parse_modest,
    tokenize,
)

#: The communication channel of the paper's Fig. 5, verbatim (plus the
#: constant TD it references).
FIG5 = """
const int TD = 1;

process Channel() {
  clock c;
  put palt {
  :98: {= c = 0 =};
     // transmission delay of
     // up to TD time units
     invariant(c <= TD) get
  : 2: {==} // message lost
  }; Channel()
}
"""


class TestLexer:
    def test_symbols(self):
        kinds = [t.kind for t in tokenize("{= =} :: && <= == !=")]
        assert kinds == ["{=", "=}", "::", "&&", "<=", "==", "!=", "eof"]

    def test_keywords_vs_idents(self):
        tokens = tokenize("process put palt when")
        assert [t.kind for t in tokens[:-1]] == [
            "keyword", "ident", "keyword", "keyword"]

    def test_comments_skipped(self):
        tokens = tokenize("a // comment\n b")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_numbers(self):
        [tok, _eof] = tokenize("98")
        assert tok.kind == "number" and tok.value == 98

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("a @ b")


class TestParser:
    def test_fig5_parses(self):
        model = parse_modest(FIG5)
        assert "Channel" in model.processes
        body = model.processes["Channel"].body
        assert isinstance(body, Sequence)
        act = body.statements[0]
        assert isinstance(act, ActionPrefix)
        assert act.action == "put"
        assert len(act.branches) == 2
        assert act.branches[0].weight == 98
        assert act.branches[1].weight == 2

    def test_fig5_branch_structure(self):
        model = parse_modest(FIG5)
        branches = model.processes["Channel"].body.statements[0].branches
        # Delivery branch: reset assignment + invariant-get continuation.
        assert len(branches[0].assignments) == 1
        assert isinstance(branches[0].continuation, Invariant)
        # Loss branch: empty assignment block, no continuation.
        assert branches[1].assignments == ()
        assert branches[1].continuation is None

    def test_declarations(self):
        model = parse_modest(
            "int x = 3; bool b; const int N = 5; clock c;\n"
            "process P() { tau }")
        kinds = {d.name: d.kind for d in model.declarations}
        assert kinds == {"x": "int", "b": "bool", "N": "int", "c": "clock"}

    def test_when_and_alt(self):
        model = parse_modest("""
            process P() {
              alt {
                :: when(x > 1) a
                :: b
              }
            }""")
        body = model.processes["P"].body
        assert isinstance(body, Alt)
        assert isinstance(body.alternatives[0], When)

    def test_do_loop(self):
        model = parse_modest("process P() { do { :: a; b } }")
        assert isinstance(model.processes["P"].body, Loop)

    def test_par_composition(self):
        model = parse_modest(
            "process P() { a } process Q() { a } par { :: P() :: Q() }")
        assert [c.name for c in model.composition] == ["P", "Q"]

    def test_expression_precedence(self):
        model = parse_modest("process P() { when(1 + 2 * 3 == 7) a }")
        guard = model.processes["P"].body.guard
        assert guard.eval({}) is True

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_modest("process P( { a }")
        with pytest.raises(ParseError):
            parse_modest("process P() { palt }")
        with pytest.raises(ParseError):
            parse_modest("process P() { alt { } }")
        with pytest.raises(ParseError):
            parse_modest("wibble")


class TestFlattening:
    def test_fig5_channel_automaton(self):
        net = flatten_model(parse_modest(FIG5))
        process = net.processes[0]
        automaton = process.automaton
        # One probabilistic edge (put), one get edge, one recursion edge.
        prob_edges = [e for e in automaton.edges
                      if hasattr(e, "branches")]
        assert len(prob_edges) == 1
        [put] = prob_edges
        assert put.branches[0].probability == pytest.approx(0.98)
        assert put.branches[1].probability == pytest.approx(0.02)
        # Delivery branch resets the clock.
        assert put.branches[0].resets == (("c", 0),)

    def test_fig5_invariant_on_transit_location(self):
        net = flatten_model(parse_modest(FIG5))
        automaton = net.processes[0].automaton
        transit = [loc for loc in automaton.locations.values()
                   if loc.invariant]
        assert len(transit) == 1
        [atom] = transit[0].invariant
        assert atom.clock == "c" and atom.op == "<=" and atom.bound == 1

    def test_shared_actions_become_channels(self):
        net = flatten_model(parse_modest("""
            process P() { ping; pong }
            process Q() { ping; pong }
            par { :: P() :: Q() }"""))
        assert set(net.channels) == {"ping", "pong"}

    def test_three_way_sync_rejected(self):
        with pytest.raises(ModelError):
            flatten_model(parse_modest("""
                process P() { a } process Q() { a } process R() { a }
                par { :: P() :: Q() :: R() }"""))

    def test_non_tail_call_rejected(self):
        with pytest.raises(ModelError):
            flatten_model(parse_modest(
                "process P() { a } process Q() { P() } Q()"))

    def test_clock_guard_split(self):
        net = flatten_model(parse_modest("""
            const int K = 4;
            int n = 0;
            process P() {
              clock x;
              when(x >= K && n == 0) a {= n = 1 =}
            }
            P()"""))
        automaton = net.processes[0].automaton
        [edge] = [e for e in automaton.edges if e.label == "a"]
        assert len(edge.guard) == 1
        assert edge.guard[0].bound == 4
        assert edge.data_guard is not None

    def test_nonconstant_clock_bound_rejected(self):
        with pytest.raises(ModelError):
            flatten_model(parse_modest("""
                int n = 0;
                process P() { clock x; when(x <= n) a }
                P()"""))


class TestToolset:
    """A tiny lossy handshake analysed by all three backends."""

    SRC = """
        const int TD = 1;
        bool done = false;

        process Channel() {
          clock c;
          put palt {
          :9: {= c = 0 =}; invariant(c <= TD) get
          :1: {==}
          }; Channel()
        }

        process Sender() {
          clock x;
          do {
            :: invariant(x <= 2) when(x >= 2) put {= x = 0 =}
            :: get {= done = true =}
          }
        }

        par { :: Sender() :: Channel() }
    """

    @staticmethod
    def _done(names, valuation, clocks):
        return bool(valuation["done"])

    def test_mctau(self):
        results = mctau(self.SRC, [Reach("done", self._done),
                                   Pmax("p_done", self._done),
                                   Emax("t_done", self._done)])
        assert results["done"] is True
        assert results["p_done"] == Interval(0, 1)
        assert results["t_done"] is None

    def test_mctau_unreachable_is_exact_zero(self):
        def never(names, valuation, clocks):
            return False

        results = mctau(self.SRC, [Pmax("nope", never)])
        assert results["nope"] == 0.0

    def test_mctau_rejects_a_predicate_that_reads_clocks(self):
        """Zones carry no clock values: a clock-reading predicate gets a
        QueryError naming the property and the backends that can."""
        from repro.models import brp_modest as bm

        with pytest.raises(QueryError, match=r"'c'.*mcpta or modes"):
            mctau(bm.make_brp_modest(2, 1, 1),
                  [Reach("c", lambda n, v, clocks: clocks[1] > 3)])

    def test_mcpta(self):
        results = mcpta(self.SRC, [Pmax("p_done", self._done),
                                   Emax("t_done", self._done)])
        # Delivery succeeds eventually with probability 1.
        assert results["p_done"] == pytest.approx(1.0)
        # Each round takes 2 (sender period); delivery needs Geom(0.9)
        # rounds plus up to TD transit -- expected max time is finite
        # and at least one round.
        assert 2.0 <= results["t_done"] < 6.0

    def test_modes(self):
        results = modes(self.SRC, [Pmax("p_done", self._done),
                                   Emax("t_done", self._done)],
                        runs=200, rng=3)
        assert results["p_done"].mean == pytest.approx(1.0)
        assert 2.0 <= results["t_done"].mean < 6.0

    def test_backends_agree(self):
        """The single-formalism, multi-solution promise: the exact value
        from mcpta lies in mctau's interval and near modes' estimate."""
        exact = mcpta(self.SRC, [Pmax("p", self._done)])["p"]
        interval = mctau(self.SRC, [Pmax("p", self._done)])["p"]
        estimate = modes(self.SRC, [Pmax("p", self._done)],
                         runs=100, rng=4)["p"]
        assert interval.low <= exact <= interval.high
        assert abs(estimate.mean - exact) < 0.1
