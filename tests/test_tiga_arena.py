"""The game arena comes from the shared integer-clock explorer.

:class:`repro.tiga.GameGraph` reads its arena from
:meth:`repro.ta.discrete.DiscreteSemantics.explore`, the loop the
digital-clocks MDP builder runs too.  These tests hold it, state for
state, to an arena built the way the game once built its own: a LIFO
loop that asks the timed-automaton views ``moves`` and ``tick`` for
each state's successors, kept below as the oracle.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Declarations, SearchLimitError
from repro.models.traingame import make_traingame
from repro.ta import Automaton, DiscreteSemantics, Network, clk
from repro.tiga import GameGraph


def oracle_arena(network):
    """The arena as the ``moves``/``tick`` loop explores it: per state,
    in index order, its key, its controllable and uncontrollable moves
    as ``(label, target)`` and its tick target."""
    semantics = DiscreteSemantics(network)
    initial = semantics.initial()
    index_of = {initial.key(): 0}
    states = [initial]
    queue = [0]
    rows = {}

    def intern(state):
        key = state.key()
        idx = index_of.get(key)
        if idx is None:
            idx = index_of[key] = len(states)
            states.append(state)
            queue.append(idx)
        return idx

    while queue:
        i = queue.pop()
        ctrl, unc = [], []
        for move, succ in semantics.moves(states[i]):
            moves = ctrl if move.controllable else unc
            moves.append((move.transition.describe(), intern(succ)))
        ticked = semantics.tick(states[i])
        rows[i] = (ctrl, unc, None if ticked is None else intern(ticked))
    return [(state.key(),) + rows[i] for i, state in enumerate(states)]


def arena_rows(graph):
    """:func:`oracle_arena`'s rows for a :class:`GameGraph`."""
    return [(state.key(),
             [(t.describe(), j) for t, j in graph.ctrl[i]],
             [(t.describe(), j) for t, j in graph.unc[i]],
             graph.tick[i])
            for i, state in enumerate(graph.states)]


def _bump(env):
    env["n"] = min(env["n"] + 1, 2)


def _low(valuation):
    return valuation["n"] < 2


@st.composite
def games(draw):
    """A small closed, diagonal-free timed game: one or two processes
    with clock ``x``, optional invariants and urgent locations, and
    controllable and uncontrollable edges with guards, resets, a
    channel between the processes and a bounded data variable ``n``.
    Each location has at least one outgoing edge."""
    processes = []
    n_procs = draw(st.integers(1, 2))
    syncs = [None, None, "!", "?"] if n_procs == 2 else [None]
    for _ in range(n_procs):
        n_locs = draw(st.integers(2, 3))
        locations = [(draw(st.sampled_from([None, 1, 2, 3])),
                      i > 0 and draw(st.integers(0, 5)) == 0)
                     for i in range(n_locs)]
        edges = []
        for e in range(draw(st.integers(2, 6))):
            edges.append((
                e % n_locs if e < n_locs else
                draw(st.integers(0, n_locs - 1)),
                draw(st.integers(0, n_locs - 1)),
                draw(st.sampled_from([None, (">=", 1), (">=", 2),
                                      ("<=", 1), ("<=", 2), ("==", 2)])),
                draw(st.booleans()),                        # reset x
                draw(st.booleans()),                        # controllable
                draw(st.sampled_from([None, "bump", "low"])),
                draw(st.sampled_from(syncs))))
        processes.append((locations, edges))

    def make():
        network = Network("generated-game")
        decls = Declarations()
        decls.declare_int("n", 0, 0, 2)
        network.declarations = decls
        network.add_channel("c")
        for p, (locations, edges) in enumerate(processes):
            a = Automaton(f"P{p}", clocks=["x"])
            for i, (bound, urgent) in enumerate(locations):
                invariant = [] if bound is None else [clk("x", "<=", bound)]
                a.add_location(f"L{i}", invariant=invariant, urgent=urgent)
            a.initial_location = "L0"
            for source, target, guard, reset, controllable, data, sync \
                    in edges:
                a.add_edge(
                    f"L{source}", f"L{target}",
                    guard=[] if guard is None else [clk("x", *guard)],
                    data_guard=_low if data == "low" else None,
                    update=[_bump] if data == "bump" else [],
                    resets=[("x", 0)] if reset else [],
                    sync=None if sync is None else ("c", sync),
                    controllable=controllable)
            network.add_process(f"P{p}", a)
        return network.freeze()

    return make


@settings(max_examples=150, deadline=None)
@given(games())
def test_arena_matches_the_moves_tick_loop(make):
    """State keys and order, every move's label, owner and target, and
    every tick target equal the oracle's."""
    graph = GameGraph(make())
    assert arena_rows(graph) == oracle_arena(make())


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored_when_the_cap_trips(enabled):
    """The arena build pauses the cyclic collector and restores the
    caller's setting, also when it raises ``SearchLimitError``."""
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        GameGraph(make_traingame(1))
        assert gc.isenabled() is enabled
        with pytest.raises(SearchLimitError) as excinfo:
            GameGraph(make_traingame(2), max_states=50)
        assert excinfo.value.limit == 50
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
