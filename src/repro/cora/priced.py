"""Priced timed automata: timed automata extended with cost variables
(paper, Section II, UPPAAL-CORA).

A :class:`PricedTA` decorates a network with location cost *rates*
(cost per time unit while the location is occupied) and per-edge cost
increments.  :func:`min_cost_reachability` solves the minimum-cost
reachability problem — the engine behind CORA's applications to
embedded-system optimisation and WCET analysis.

For closed, diagonal-free automata the optimal cost is attained at an
integer-time corner point, so Dijkstra over the discrete-time semantics
computes the exact optimum (the substitution for CORA's priced-zone
algorithm; see DESIGN.md).
"""

from __future__ import annotations

import heapq

from ..core.errors import ModelError, SearchLimitError
from ..mc.explorecore import TraceNode, reconstruct_trace
from ..obs import incr, span
from ..ta.discrete import DiscreteSemantics


def _steps_of(node):
    """The ``["tick" | transition]`` step list leading to ``node``.

    Uniform-cost search shares trace prefixes through parent-pointer
    :class:`~repro.mc.explorecore.TraceNode` records (the seed engine
    copied a ``trace + (step,)`` tuple per pushed state — quadratic
    memory on long cheapest paths); the step list is materialised only
    for the single optimal node.
    """
    return [step for step, _state in reconstruct_trace(node)[1:]]


class PricedTA:
    """A network of timed automata with prices."""

    def __init__(self, network):
        self.network = network.freeze()
        self._rates = {}       # (process_index, location_index) -> rate
        self._edge_costs = {}  # id(edge) -> cost

    def set_rate(self, process_name, location_name, rate):
        """Cost per time unit while the process sits in the location."""
        if rate < 0:
            raise ModelError("negative cost rates are not supported")
        process = self.network.process_by_name(process_name)
        loc_index = process.location_index.get(location_name)
        if loc_index is None:
            raise ModelError(
                f"{process_name}: unknown location {location_name!r}")
        self._rates[(process.index, loc_index)] = rate
        return self

    def set_edge_cost(self, edge, cost):
        """One-off cost of firing an edge."""
        if cost < 0:
            raise ModelError("negative edge costs are not supported")
        self._edge_costs[id(edge)] = cost
        return self

    def delay_rate(self, locs):
        """Total cost rate of a location vector."""
        return sum(self._rates.get((p, li), 0)
                   for p, li in enumerate(locs))

    def transition_cost(self, transition):
        return sum(self._edge_costs.get(id(edge), 0)
                   for _process, edge in transition.participants)


class CostResult:
    """Outcome of a minimum-cost search."""

    __slots__ = ("cost", "state", "trace", "states_explored")

    def __init__(self, cost, state, trace, states_explored):
        self.cost = cost            # None when unreachable
        self.state = state
        self.trace = trace          # list of ("tick" | transition) steps
        self.states_explored = states_explored

    def __bool__(self):
        return self.cost is not None

    def __repr__(self):
        return f"CostResult(cost={self.cost})"


def min_cost_reachability(priced, goal, extra_constants=None,
                          max_states=2000000):
    """Least cost to reach a state satisfying ``goal(location_names,
    valuation, clocks)`` — uniform-cost search over the discrete arena.
    """
    network = priced.network
    semantics = DiscreteSemantics(network, extra_constants=extra_constants)
    initial = semantics.initial()

    counter = 0  # tie-breaker so heap entries never compare nodes
    heap = [(0, counter, TraceNode(initial))]
    best = {initial.key(): 0}
    explored = 0
    result = None
    with span("cora.min_cost") as sp:
        while heap:
            cost, _tie, node = heapq.heappop(heap)
            state = node.state
            key = state.key()
            if cost > best.get(key, float("inf")):
                continue
            explored += 1
            names = network.location_vector_names(state.locs)
            if goal(names, state.valuation, state.clocks):
                result = CostResult(cost, state, _steps_of(node), explored)
                break
            if explored > max_states:
                raise SearchLimitError(
                    f"search exceeded {max_states} states",
                    limit=max_states)

            successors = []
            ticked = semantics.tick(state)
            if ticked is not None:
                successors.append(
                    (cost + priced.delay_rate(state.locs), "tick", ticked))
            for transition, succ in semantics.action_successors(state):
                successors.append(
                    (cost + priced.transition_cost(transition), transition,
                     succ))
            for new_cost, step, succ in successors:
                succ_key = succ.key()
                if new_cost < best.get(succ_key, float("inf")):
                    best[succ_key] = new_cost
                    counter += 1
                    heapq.heappush(
                        heap, (new_cost, counter, TraceNode(succ, step, node)))
        if result is None:
            result = CostResult(None, None, None, explored)
        sp.set("states_explored", explored)
        sp.set("cost", result.cost)
    _record_search("min_cost", result)
    return result


def _record_search(kind, result):
    incr("cora.searches")
    incr("cora.states_explored", result.states_explored)
    incr(f"cora.{kind}." + ("found" if result else "unreachable"))


def max_cost_reachability(priced, goal, extra_constants=None,
                          max_states=2000000):
    """Greatest cost over all runs reaching the goal — the WCET query
    of METAMOC-style analysis (paper, Section II, UPPAAL-CORA).

    Longest path by memoized depth-first search over the discrete
    arena; a cost-bearing cycle on the way to the goal makes the
    maximum infinite, which is reported as an :class:`AnalysisError`
    (WCET models must bound their loops).
    """
    with span("cora.max_cost") as sp:
        result = _max_cost_search(priced, goal, extra_constants,
                                  max_states)
        sp.set("states_explored", result.states_explored)
        sp.set("cost", result.cost)
    _record_search("max_cost", result)
    return result


def _max_cost_search(priced, goal, extra_constants, max_states):
    import sys

    from ..core.errors import AnalysisError

    network = priced.network
    semantics = DiscreteSemantics(network, extra_constants=extra_constants)

    def successors(state):
        out = []
        ticked = semantics.tick(state)
        if ticked is not None and ticked.key() != state.key():
            out.append((priced.delay_rate(state.locs), "tick", ticked))
        elif ticked is not None and priced.delay_rate(state.locs) > 0:
            # Saturated self-delay with a positive rate: waiting here
            # accumulates cost forever.
            out.append((priced.delay_rate(state.locs), "tick", ticked))
        for transition, succ in semantics.action_successors(state):
            out.append((priced.transition_cost(transition), transition,
                        succ))
        return out

    # Phase 1: forward exploration + goal detection.
    initial = semantics.initial()
    states = {initial.key(): initial}
    succ_map = {}
    goal_keys = set()
    queue = [initial]
    while queue:
        state = queue.pop()
        key = state.key()
        names = network.location_vector_names(state.locs)
        if goal(names, state.valuation, state.clocks):
            goal_keys.add(key)
            succ_map[key] = []
            continue
        moves = successors(state)
        succ_map[key] = moves
        for _cost, _step, succ in moves:
            if succ.key() not in states:
                states[succ.key()] = succ
                queue.append(succ)
                if len(states) > max_states:
                    raise SearchLimitError(
                        f"search exceeds {max_states} states",
                        limit=max_states)

    if not goal_keys:
        return CostResult(None, None, None, len(states))

    # Phase 2: restrict to states that can reach the goal.
    preds = {key: set() for key in states}
    for key, moves in succ_map.items():
        for _cost, _step, succ in moves:
            preds[succ.key()].add(key)
    relevant = set(goal_keys)
    stack = list(goal_keys)
    while stack:
        key = stack.pop()
        for pred in preds[key]:
            if pred not in relevant:
                relevant.add(pred)
                stack.append(pred)
    if initial.key() not in relevant:
        return CostResult(None, None, None, len(states))

    # Phase 3: longest path over the restricted graph (must be a DAG).
    memo = {}
    on_stack = set()

    def longest(key):
        if key in goal_keys:
            return (0, ())
        cached = memo.get(key)
        if cached is not None:
            return cached
        if key in on_stack:
            raise AnalysisError(
                "cycle reachable on the way to the goal: the maximum "
                "cost may be unbounded (bound the model's loops)")
        on_stack.add(key)
        best = None
        for step_cost, step, succ in succ_map[key]:
            succ_key = succ.key()
            if succ_key not in relevant:
                continue
            sub = longest(succ_key)
            total = step_cost + sub[0]
            if best is None or total > best[0]:
                best = (total, (step,) + sub[1])
        on_stack.discard(key)
        memo[key] = best
        return best

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100000))
    try:
        result = longest(initial.key())
    finally:
        sys.setrecursionlimit(old_limit)
    cost, trace = result
    return CostResult(cost, None, list(trace), len(states))
