"""The verification front-end: UPPAAL-style checking of path queries."""

from __future__ import annotations

import operator

from ..core.errors import QueryError
from ..obs.metrics import incr
from ..obs.trace import span
from ..ta.zonegraph import ZoneGraph
from . import liveness
from .deadlock import DeadlockGoal
from .queries import (
    AF,
    AG,
    ClockPred,
    Deadlock,
    EF,
    EG,
    LeadsTo,
    LocationIs,
    Not,
)
from .reachability import build_graph, explore

_DEADLOCK_ALONE = ("the deadlock atom may only appear alone in "
                   "E<> deadlock / A[] not deadlock")


def _subformulas(formula):
    """``formula`` and every formula nested in it, depth first."""
    yield formula
    for attr in ("operand", "operands", "formula", "premise", "conclusion"):
        inner = getattr(formula, attr, None)
        if inner is None:
            continue
        for item in inner if isinstance(inner, tuple) else (inner,):
            yield from _subformulas(item)


def _resolve_locations(network, query):
    """Raise :class:`~repro.core.errors.ModelError` when a location
    atom of ``query`` names a process or location ``network`` lacks
    (such an atom would otherwise silently never hold)."""
    for formula in _subformulas(query):
        if isinstance(formula, LocationIs):
            network.process_by_name(formula.process_name) \
                .resolve_location(formula.location_name)


def _contains_deadlock_atom(formula):
    return any(isinstance(f, Deadlock) for f in _subformulas(formula))


class VerificationResult:
    """Outcome of a query: verdict plus diagnostics."""

    __slots__ = ("query", "holds", "witness", "trace", "states_explored")

    def __init__(self, query, holds, witness=None, trace=None,
                 states_explored=0):
        self.query = query
        self.holds = holds
        self.witness = witness
        self.trace = trace
        self.states_explored = states_explored

    def __bool__(self):
        return self.holds

    def __repr__(self):
        verdict = "satisfied" if self.holds else "NOT satisfied"
        return (f"VerificationResult({self.query!r}: {verdict}, "
                f"{self.states_explored} states)")


class Verifier:
    """Zone-based model checker for a network of timed automata."""

    def __init__(self, network, use_inclusion=True, extra_constants=None,
                 max_states=200000):
        self.network = network
        self._extra = dict(extra_constants) if extra_constants else {}
        self.graph = ZoneGraph(network, extra_constants=extra_constants)
        self.use_inclusion = use_inclusion
        self.max_states = max_states
        self._full_graph = None
        self._k_graph = None

    # -- public API -------------------------------------------------------------

    def check(self, query):
        """Check one path query and return a :class:`VerificationResult`.

        Accepts a query object or an UPPAAL-style query string
        (see :mod:`repro.mc.parser`).  With observability on (see
        :mod:`repro.obs`) each check opens a ``mc.check`` span carrying
        the verdict and per-query state count, and bumps the
        ``mc.queries`` verdict counters.
        """
        if isinstance(query, str):
            from .parser import parse_query

            query = parse_query(query)
        deadlock = _contains_deadlock_atom(query)
        if deadlock and isinstance(query, (AF, EG, LeadsTo)):
            # Liveness runs on the materialised graph, whose nodes
            # cannot evaluate the atom: reject before building it.
            raise QueryError(_DEADLOCK_ALONE)
        _resolve_locations(self.network, query)
        self._absorb_query_clocks(query)
        # The deadlock atom reads zone *contents* (is any action
        # enabled from every point?), which LU extrapolation and
        # activity freeing deliberately widen.  Those queries run on a
        # classic-k graph, the abstraction the deadlock semantics was
        # validated against; location predicates keep the fast graph.
        default_graph = self.graph
        if deadlock and self.graph.abstraction == "lu+":
            if self._k_graph is None:
                self._k_graph = ZoneGraph(
                    self.network, extra_constants=self._extra,
                    abstraction="k")
            self.graph = self._k_graph
        try:
            with span("mc.check", query=type(query).__name__) as sp:
                result = self._dispatch(query)
                sp.set("holds", result.holds)
                sp.set("states_explored", result.states_explored)
        finally:
            self.graph = default_graph
        incr("mc.queries")
        incr("mc.queries.satisfied" if result.holds
             else "mc.queries.unsatisfied")
        return result

    def _absorb_query_clocks(self, query):
        """Fold clocks the query observes into the graph's constants.

        Zone abstraction (LU extrapolation, inactive-clock freeing) is
        exact for location reachability but widens the clock valuations
        a :class:`~repro.mc.queries.ClockPred` inspects — a clock dead
        at the goal location would read as unconstrained.  Registering
        each query-referenced clock as an extra constant floors its LU
        bounds at the query constant *and* keeps it permanently active
        (see :class:`repro.ta.bounds.NetworkBounds`), restoring
        exactness.  The graph is rebuilt only when a query actually
        tightens the constants, so clock-free queries share one graph.
        """
        found = {}
        for formula in _subformulas(query):
            if not isinstance(formula, ClockPred):
                continue
            process = self.network.process_by_name(formula.process_name)
            atom = formula.atom
            clocks = [atom.clock]
            if getattr(atom, "other", None) is not None:
                clocks.append(atom.other)
            for name in clocks:
                gi = process.resolve_clock(name)
                c = abs(atom.bound)
                if found.get(gi, -1) < c:
                    found[gi] = c
        changed = False
        for gi, c in found.items():
            if self._extra.get(gi, -1) < c:
                self._extra[gi] = c
                changed = True
        if changed:
            self.graph = ZoneGraph(self.network,
                                   extra_constants=self._extra)
            self._full_graph = None
            self._k_graph = None

    def _dispatch(self, query):
        if isinstance(query, EF):
            return self._check_ef(query)
        if isinstance(query, AG):
            return self._check_ag(query)
        if isinstance(query, AF):
            return self._check_liveness(query)
        if isinstance(query, EG):
            return self._check_liveness(query)
        if isinstance(query, LeadsTo):
            return self._check_liveness(query)
        raise QueryError(f"unsupported query {query!r}")

    def deadlock_free(self):
        """``A[] not deadlock``."""
        return self.check(AG(Not(Deadlock())))

    def sup(self, value_of):
        """UPPAAL's ``sup`` query: the maximum of
        ``value_of(valuation)`` over all reachable states."""
        return self._extremum(value_of, operator.gt)

    def inf(self, value_of):
        """UPPAAL's ``inf`` query: the minimum over reachable states."""
        return self._extremum(value_of, operator.lt)

    def _extremum(self, value_of, better):
        """The extreme ``value_of(valuation)`` over all reachable
        states, where ``better(a, b)`` says ``a`` beats ``b``."""
        best = [None]

        def observe(state):
            value = value_of(state.valuation)
            if best[0] is None or better(value, best[0]):
                best[0] = value

        explore(self.graph, on_state=observe,
                use_inclusion=self.use_inclusion,
                max_states=self.max_states)
        return best[0]

    # -- reachability queries ----------------------------------------------------

    def _goal_predicate(self, formula):
        if isinstance(formula, Deadlock):
            return DeadlockGoal(self.graph)
        if _contains_deadlock_atom(formula):
            raise QueryError(_DEADLOCK_ALONE)
        return lambda state: formula.holds(self.network, state)

    def _check_ef(self, query):
        result = explore(self.graph, goal=self._goal_predicate(query.formula),
                         use_inclusion=self.use_inclusion,
                         max_states=self.max_states)
        return VerificationResult(query, result.found, result.witness,
                                  result.trace, result.states_explored)

    def _check_ag(self, query):
        formula = query.formula
        # A[] phi  ==  not E<> not phi.
        if isinstance(formula, Not) and isinstance(formula.operand, Deadlock):
            negated = Deadlock()
        else:
            negated = formula.negate()
        inner = self._check_ef(EF(negated))
        return VerificationResult(query, not inner.holds, inner.witness,
                                  inner.trace, inner.states_explored)

    # -- liveness queries ----------------------------------------------------------

    def _materialised(self):
        if self._full_graph is None:
            self._full_graph = build_graph(
                self.graph, max_states=self.max_states)
        return self._full_graph

    def _check_liveness(self, query):
        nodes, edges, initial = self._materialised()
        if isinstance(query, AF):
            holds, offender = liveness.check_af(
                self.network, nodes, edges, initial, query.formula)
        elif isinstance(query, EG):
            holds, offender = liveness.check_eg(
                self.network, nodes, edges, initial, query.formula)
        else:
            holds, offender = liveness.check_leadsto(
                self.network, nodes, edges, initial,
                query.premise, query.conclusion)
        witness = nodes[offender] if offender is not None else None
        return VerificationResult(query, holds, witness, None, len(nodes))
