"""Backward fixpoint solvers for timed safety and reachability games.

The turn-based abstraction (Maler–Pnueli–Sifakis style) over the
discrete-time arena:

* in every state the controller proposes a move — one of its own edges
  or "wait one tick" (when time may pass);
* the environment may override the proposal with any of its enabled
  edges.

Reachability (the controller forces ``goal``): least fixpoint of

    W <- goal  ∪  { s | all env moves lead into W, and progress into W
                        is guaranteed: some controller move leads into
                        W, or time cannot pass and the environment is
                        forced to act (all its options are in W) }

The forced-environment clause matters: in the paper's train game the
controller wins "the approaching train eventually crosses" by doing
nothing — the invariant ``x <= 20`` forces the train onto the bridge.

Safety (the controller keeps ``safe`` forever): greatest fixpoint of

    V <- safe  ∩  { s | all env moves stay in V and, if time may pass,
                        the controller can stay in V (tick or own edge) }

A state where nothing at all can happen counts as (vacuously) safe —
the run stops there — matching the convention discussed in DESIGN.md.

Both fixpoints run as breadth-first worklist algorithms (a
:class:`collections.deque`) over precomputed predecessor lists: a
state is re-examined only when one of its successors changes side,
instead of rescanning the whole arena per round; the reachability
strategy's choices follow that order.  The computed winning sets are
the same fixpoints as the naive iteration; the
``tiga.fixpoint_iterations`` counter now counts worklist examinations
rather than full sweeps.
"""

from __future__ import annotations

from collections import deque

from ..obs.metrics import incr
from ..obs.trace import span
from .strategy import Strategy


def _predecessors(graph):
    """For every state, the states with an edge (ctrl, unc or tick)
    into it."""
    preds = [[] for _ in range(graph.num_states)]
    for i in range(graph.num_states):
        for _t, j in graph.ctrl[i]:
            preds[j].append(i)
        for _t, j in graph.unc[i]:
            preds[j].append(i)
        if graph.tick[i] is not None:
            preds[graph.tick[i]].append(i)
    return preds


def solve_reachability(graph, goal):
    """Least-fixpoint attractor.  Returns ``(winning_set, strategy)``.

    ``goal`` is a set of state indices.  The strategy maps each winning
    non-goal state to the move ("tick" or a transition) that decreases
    the distance to the goal.
    """
    winning = set(goal)
    choice = {}
    iterations = 0

    def winning_move(i):
        """The controller's move when ``i`` joins the attractor, or
        ``None`` while the membership condition does not hold."""
        for _t, j in graph.unc[i]:
            if j not in winning:
                return None
        for transition, j in graph.ctrl[i]:
            if j in winning:
                return (transition, j)
        tick = graph.tick[i]
        if tick is not None and tick in winning:
            return ("tick", tick)
        if tick is None and graph.unc[i]:
            # Time cannot pass and the controller stays put: the
            # environment must fire one of its edges, all of which
            # lead into W.
            return ("stay", i)
        return None

    with span("tiga.solve_reachability", states=graph.num_states) as sp:
        preds = _predecessors(graph)
        frontier = deque(winning)
        while frontier:
            j = frontier.popleft()
            iterations += 1
            for i in preds[j]:
                if i in winning:
                    continue
                move = winning_move(i)
                if move is not None:
                    winning.add(i)
                    choice[i] = move
                    frontier.append(i)
        iterations = max(iterations, 1)
        sp.set("iterations", iterations)
        sp.set("winning", len(winning))
    _record_solve("reachability", iterations, winning)
    return winning, Strategy(graph, choice, winning, goal=goal)


def _record_solve(kind, iterations, winning):
    incr("tiga.solves")
    incr("tiga.fixpoint_iterations", iterations)
    incr(f"tiga.{kind}.winning_states", len(winning))


def solve_safety(graph, safe):
    """Greatest fixpoint inside ``safe``.  Returns ``(winning_set,
    strategy)`` where the strategy picks, for each winning state, a move
    that stays in the winning region ("tick", a controller edge, or
    "stay" when nothing needs doing)."""
    region = set(safe)
    iterations = 0

    def escapes(i):
        """True when ``i`` can no longer be held inside the region."""
        for _t, j in graph.unc[i]:
            if j not in region:
                return True
        tick = graph.tick[i]
        if tick is not None and tick not in region:
            # Time would escape: the controller must preempt with one
            # of its own edges that stays inside.
            return not any(j in region for _t, j in graph.ctrl[i])
        return False

    with span("tiga.solve_safety", states=graph.num_states) as sp:
        preds = _predecessors(graph)
        frontier = deque()
        for i in list(region):
            iterations += 1
            if escapes(i):
                region.discard(i)
                frontier.append(i)
        while frontier:
            j = frontier.popleft()
            for i in preds[j]:
                if i not in region:
                    continue
                iterations += 1
                if escapes(i):
                    region.discard(i)
                    frontier.append(i)
        iterations = max(iterations, 1)
        sp.set("iterations", iterations)
        sp.set("winning", len(region))
    _record_solve("safety", iterations, region)
    choice = {}
    for i in region:
        if graph.tick[i] is not None and graph.tick[i] in region:
            choice[i] = ("tick", graph.tick[i])
            continue
        for transition, j in graph.ctrl[i]:
            if j in region:
                choice[i] = (transition, j)
                break
        else:
            choice[i] = ("stay", i)
    return region, Strategy(graph, choice, region)


def controller_wins_reachability(graph, goal_predicate):
    """Convenience wrapper: can the controller force the predicate from
    the initial state?  Returns ``(bool, strategy)``."""
    goal = graph.satisfying(goal_predicate)
    winning, strategy = solve_reachability(graph, goal)
    return 0 in winning, strategy


def controller_wins_safety(graph, safe_predicate):
    """Can the controller keep the predicate invariant from the initial
    state?  Returns ``(bool, strategy)``."""
    safe = graph.satisfying(safe_predicate)
    winning, strategy = solve_safety(graph, safe)
    return 0 in winning, strategy
