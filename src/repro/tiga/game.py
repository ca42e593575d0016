"""Timed game automata (UPPAAL-TIGA's model).

A timed game is a network of timed automata whose edges are partitioned
between two players: *controllable* edges belong to the controller,
the rest to the environment (the dashed edges of the paper's Fig. 2).
The controller additionally owns the choice to let one time unit pass;
the environment may always preempt with one of its own edges.

The game is solved over the discrete-time (integer clock) semantics,
which is sound and complete for the closed, diagonal-free automata used
in the paper's example (see DESIGN.md).
"""

from __future__ import annotations

from ..core.errors import SearchLimitError
from ..obs import checkpoint, incr, span
from ..ta.discrete import DiscreteSemantics


class GameGraph:
    """The explored arena: per state, controller moves, environment
    moves and the tick successor."""

    def __init__(self, network, initial_state=None, extra_constants=None,
                 max_states=2000000):
        self.semantics = DiscreteSemantics(network,
                                           extra_constants=extra_constants)
        self.network = self.semantics.network
        initial = initial_state if initial_state is not None \
            else self.semantics.initial()
        self.index_of = {initial.key(): 0}
        self.states = [initial]
        self.ctrl = []   # per state: list of (transition, succ_index)
        self.unc = []    # per state: list of (transition, succ_index)
        self.tick = []   # per state: succ_index or None
        self._names_by_locs = {}  # locs tuple -> location name vector
        self._explore(max_states)

    def _intern(self, state, queue):
        key = state.key()
        idx = self.index_of.get(key)
        if idx is None:
            idx = len(self.states)
            self.index_of[key] = idx
            self.states.append(state)
            queue.append(idx)
        return idx

    def _explore(self, max_states):
        with span("tiga.explore") as sp:
            queue = [0]
            expanded = 0
            while queue:
                i = queue.pop()
                while len(self.ctrl) <= i:
                    self.ctrl.append(None)
                    self.unc.append(None)
                    self.tick.append(None)
                state = self.states[i]
                ctrl_moves, unc_moves = [], []
                for move, succ in self.semantics.moves(state):
                    moves = ctrl_moves if move.controllable else unc_moves
                    moves.append((move.transition, self._intern(succ, queue)))
                self.ctrl[i] = ctrl_moves
                self.unc[i] = unc_moves
                ticked = self.semantics.tick(state)
                self.tick[i] = self._intern(ticked, queue) \
                    if ticked is not None else None
                expanded += 1
                if expanded & 1023 == 0:
                    checkpoint("tiga.explore", expanded,
                               waiting=len(queue))
                if len(self.states) > max_states:
                    raise SearchLimitError(
                        f"game arena exceeds {max_states} states",
                        limit=max_states)
            # Pad arrays for states discovered last.
            while len(self.ctrl) < len(self.states):
                self.ctrl.append([])
                self.unc.append([])
                self.tick.append(None)
            sp.set("states", len(self.states))
        incr("tiga.arena_states", len(self.states))

    def _names(self, locs):
        names = self._names_by_locs.get(locs)
        if names is None:
            names = self.network.location_vector_names(locs)
            self._names_by_locs[locs] = names
        return names

    @property
    def num_states(self):
        return len(self.states)

    def satisfying(self, predicate):
        """State indices where ``predicate(location_names, valuation,
        clocks)`` holds."""
        out = set()
        for i, state in enumerate(self.states):
            if predicate(self._names(state.locs), state.valuation,
                         state.clocks):
                out.add(i)
        return out

    def __repr__(self):
        return f"GameGraph({self.num_states} states)"
