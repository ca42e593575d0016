"""Timed game automata (UPPAAL-TIGA's model).

A timed game is a network of timed automata whose edges are partitioned
between two players: *controllable* edges belong to the controller,
the rest to the environment (the dashed edges of the paper's Fig. 2).
The controller additionally owns the choice to let one time unit pass;
the environment may always preempt with one of its own edges.

The game is solved over the discrete-time (integer clock) semantics,
which is sound and complete for the closed, diagonal-free automata used
in the paper's example (see DESIGN.md).  The arena is explored by the
one explorer of that semantics,
:meth:`~repro.ta.discrete.DiscreteSemantics.explore`, which the
digital-clocks MDP builder runs too; :class:`GameGraph` only sorts its
actions by player.
"""

from __future__ import annotations

from ..obs import incr, span
from ..ta.discrete import (
    DiscreteSemantics,
    gc_paused,
    probabilistic_step_error,
    states_where,
)


class GameGraph:
    """The explored arena: per state, controller moves, environment
    moves and the tick successor.

    ``ctrl[i]`` and ``unc[i]`` list state ``i``'s controllable and
    uncontrollable moves as ``(transition, successor index)``, and
    ``tick[i]`` is its tick successor's index or ``None``.  An enabled
    probabilistic transition raises
    :class:`~repro.core.errors.ModelError`; the cyclic garbage collector
    is paused while the arena is built.
    """

    def __init__(self, network, initial_state=None, extra_constants=None,
                 max_states=2000000):
        self.semantics = semantics = DiscreteSemantics(
            network, extra_constants=extra_constants)
        self.network = semantics.network
        initial = initial_state if initial_state is not None \
            else semantics.initial()
        with span("tiga.explore") as sp, gc_paused():
            states, sources, fires, ends, targets, _probs = \
                semantics.explore(initial, max_states, "game arena")
            n = len(states)
            ctrl = [[] for _ in range(n)]
            unc = [[] for _ in range(n)]
            tick = [None] * n
            lo = 0   # a tick or a Dirac fire has one transition
            for source, fire, hi in zip(sources, fires, ends):
                if fire is None:
                    tick[source] = targets[lo]
                elif not fire.dirac:
                    raise probabilistic_step_error(fire)
                else:
                    moves = ctrl if fire.controllable else unc
                    moves[source].append((fire.transition, targets[lo]))
                lo = hi
            sp.set("states", n)
        incr("tiga.arena_states", n)
        self.states = states
        self.ctrl = ctrl
        self.unc = unc
        self.tick = tick
        self._names_by_locs = {}  # locs tuple -> location name vector

    @property
    def num_states(self):
        return len(self.states)

    def satisfying(self, predicate):
        """State indices where ``predicate(location_names, valuation,
        clocks)`` holds."""
        return states_where(self.network, self.states, predicate,
                            self._names_by_locs)

    def __repr__(self):
        return f"GameGraph({self.num_states} states)"
