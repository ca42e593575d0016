"""Forward symbolic reachability with inclusion (subsumption) checking.

The passed/waiting-list algorithm of UPPAAL: a new symbolic state is
discarded when an already-stored state with the same discrete part has
a zone that includes it; conversely, stored zones included in the new
one are evicted — and when an evicted entry is still *waiting*, its
frontier node is dead-marked so it is never explored
(:class:`~repro.mc.explorecore.PassedWaitingList`, the unified
passed/waiting store).  ``evict_waiting=False`` restores the pre-
unification discipline exactly, which together with
``abstraction="k"`` on the graph keeps a bit-identical configuration
against the seed oracle.

The search runs on the shared exploration core
(:mod:`repro.mc.explorecore`): the waiting list is a
:class:`collections.deque`, breadth-first for :func:`explore` and
depth-first for :func:`build_graph` (O(1) per dequeue instead of the
seed engine's quadratic ``list.pop(0)``), traces are
parent-pointer :class:`~repro.mc.explorecore.SearchNode` records
reconstructed only when a witness is found, and zones arrive interned
from the graph's :class:`~repro.mc.explorecore.ZoneStore`, which turns
the passed list's inclusion pre-checks into identity hits.  The
pre-core engine is preserved verbatim in :mod:`repro.mc.reference` for
differential testing and benchmarking.

Both entry points are instrumented through :mod:`repro.obs`: with a
collector installed they flush states-explored / passed-list / zone
counters at the end of the search (plus the physical
``mc.zone_interned`` interning delta), emit a ``mc.explore`` span, and
call :func:`repro.obs.checkpoint` every 1024 states, which samples
the ``mc.explore.*`` time series (frontier / passed-list / zone-store
sizes) on a flight recorder; the searches log ``mc.explore.done`` /
``mc.build_graph.done`` events.  All counting in the search loop itself
is plain-int arithmetic, so the overhead with observability off is nil.
"""

from __future__ import annotations

from collections import deque

from ..core.errors import SearchLimitError
from ..obs import active, checkpoint, incr, log, span
from .explorecore import (
    PassedWaitingList,
    SearchNode,
    reconstruct_trace,
)


class Reachability:
    """Result of a reachability run."""

    __slots__ = ("found", "witness", "trace", "states_explored",
                 "states_stored")

    def __init__(self, found, witness, trace, states_explored, states_stored):
        self.found = found
        self.witness = witness
        self.trace = trace
        self.states_explored = states_explored
        self.states_stored = states_stored

    def __bool__(self):
        return self.found

    def __repr__(self):
        return (f"Reachability(found={self.found}, "
                f"explored={self.states_explored})")


def _cache_snapshot(graph):
    """The graph's zone-interning hits (zero for graphs without a store)."""
    store = getattr(graph, "zone_store", None)
    return store.hits if store is not None else 0


def _record_search(collector, result, passed, graph, zones_before,
                   caches_before):
    """Flush one search's counters into the active collector."""
    collector.incr("mc.searches")
    collector.incr("mc.states_explored", result.states_explored)
    collector.incr("mc.states_stored", result.states_stored)
    collector.incr("mc.passed_subsumed", passed.subsumed)
    collector.incr("mc.passed_evicted", passed.evicted)
    collector.incr("mc.waiting_subsumed",
                   getattr(passed, "waiting_subsumed", 0))
    stats = getattr(graph, "stats", None)
    if stats is not None and zones_before is not None:
        deltas = [after - before
                  for after, before in zip(stats.snapshot(), zones_before)]
        collector.incr("mc.zones_created", deltas[0])
        collector.incr("mc.dbm_constraints", deltas[1])
        collector.incr("mc.zones_pruned_empty", deltas[2])
        collector.incr("mc.lu_extrapolated", deltas[3])
        collector.incr("mc.inactive_clocks_freed", deltas[4])
    interned = _cache_snapshot(graph) - caches_before
    if interned:
        collector.incr("mc.zone_interned", interned)


def explore(graph, goal=None, on_state=None, use_inclusion=True,
            max_states=None, evict_waiting=True):
    """Symbolic exploration over the unified passed/waiting list.

    ``goal(state)`` stops the search with a positive result; ``on_state``
    is an observer callback.  A goal with an ``expand(state)`` method,
    such as :class:`repro.mc.deadlock.DeadlockGoal`, is decided from the
    state's expansion instead: the method returns the state's
    successors and the verdict from one fire loop.  The frontier is
    breadth-first, so witnesses are shortest (the UPPAAL default).
    ``evict_waiting=False`` disables dead-marking of
    subsumed frontier entries (the pre-unification behaviour; see
    :class:`~repro.mc.explorecore.PassedWaitingList`).  Returns a
    :class:`Reachability`, whose ``trace`` is the list of (transition,
    state) steps from the initial state to the witness (transition
    ``None`` for the initial state).
    """
    collector = active()
    telemetry = getattr(graph, "telemetry", dict)
    expand = getattr(goal, "expand", None)
    stats = getattr(graph, "stats", None)
    zones_before = stats.snapshot() if stats is not None else None
    caches_before = _cache_snapshot(graph)
    with span("mc.explore") as sp:
        initial = graph.initial()
        passed = PassedWaitingList(use_inclusion, evict_waiting)
        root = SearchNode(initial)
        passed.add_if_new(initial.discrete_key(), initial.zone, root)
        waiting = deque([root])
        root.waiting = True
        explored = 0
        result = None
        while waiting:
            node = waiting.popleft()
            if node.dead:
                continue
            node.waiting = False
            state = node.state
            explored += 1
            if explored & 1023 == 0:
                checkpoint("mc.explore", series=lambda: [dict(
                    explored=explored, waiting=len(waiting),
                    stored=passed.size, **telemetry())])
            if on_state is not None:
                on_state(state)
            if expand is not None:
                successors, hit = expand(state)
            else:
                successors, hit = None, goal is not None and goal(state)
            if hit:
                result = Reachability(True, state, reconstruct_trace(node),
                                      explored, passed.size)
                break
            if max_states is not None and explored >= max_states:
                break
            if successors is None:
                successors = graph.successors(state)
            for transition, succ in successors:
                child = SearchNode(succ, transition, node)
                if passed.add_if_new(succ.discrete_key(), succ.zone, child):
                    waiting.append(child)
                    child.waiting = True
        if result is None:
            result = Reachability(False, None, None, explored, passed.size)
        sp.set("found", result.found)
        sp.set("states_explored", explored)
        sp.set("states_stored", passed.size)
        log("mc.explore.done", found=result.found, explored=explored,
            stored=passed.size)
    if collector is not None:
        _record_search(collector, result, passed, graph, zones_before,
                       caches_before)
    return result


def build_graph(graph, max_states=200000):
    """Materialise the full symbolic graph without inclusion abstraction.

    Liveness checking needs the exact graph: inclusion subsumption can
    merge states with different futures.  Returns ``(nodes, edges,
    initial_index)`` where ``nodes`` is a list of symbolic states and
    ``edges[i]`` the list of ``(transition, j)`` successors.

    Node identity is ``(discrete part, zone object)``: the graph interns
    its zones, so exact zone equality is resolved by its store without
    re-hashing the DBM per visit.  Exceeding ``max_states`` raises
    :class:`~repro.core.errors.SearchLimitError`.
    """
    def node_key(state):
        return (state.locs, state.valuation.values, id(state.zone))

    with span("mc.build_graph") as sp:
        initial = graph.initial()
        index_of = {node_key(initial): 0}
        nodes = [initial]
        edges = []
        waiting = deque([0])
        while waiting:
            i = waiting.pop()
            while len(edges) <= i:
                edges.append(None)
            succs = []
            for transition, succ in graph.successors(nodes[i]):
                key = node_key(succ)
                j = index_of.get(key)
                if j is None:
                    j = len(nodes)
                    index_of[key] = j
                    nodes.append(succ)
                    waiting.append(j)
                    if len(nodes) & 1023 == 0:
                        checkpoint("mc.build_graph", series=lambda: [{
                            "states": len(nodes),
                            "waiting": len(waiting)}])
                    if len(nodes) > max_states:
                        raise SearchLimitError(
                            f"symbolic graph exceeds {max_states} states",
                            limit=max_states)
                succs.append((transition, j))
            edges[i] = succs
        while len(edges) < len(nodes):
            edges.append([])
        sp.set("graph_states", len(nodes))
        log("mc.build_graph.done", states=len(nodes))
    incr("mc.graph_states", len(nodes))
    return nodes, edges, 0
