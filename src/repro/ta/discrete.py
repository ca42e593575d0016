"""Discrete-time (integer clock) semantics of a network.

For *closed* timed automata (no strict comparisons) the integer-time
semantics preserves reachability and (un)controllability, which makes it
a sound substrate for the game solver (``repro.tiga``), min-cost
reachability (``repro.cora``), refinement checking (``repro.ecdar``) and
the online tester (``repro.mbt``).  Clocks saturate one past their
maximal constant, so the state space is finite.  Diagonal clock
constraints are rejected: saturation would not preserve clock
differences.

Everything untimed is memoised per discrete configuration
``(locs, valuation)``, as :class:`~repro.pta.digital.DigitalSemantics`
does for the digital-clocks translation (which shares the base class
:class:`IntegerClockSemantics` defined here): the candidate transitions,
their clock guards with resolved clock indices and their
controllability are computed once per configuration.  Two parts are
computed lazily so that no state raises an error it would not raise
when handled on its own:

- the *no-delay* flag (committed/urgent location or an enabled urgent
  synchronisation) on the first :meth:`DiscreteSemantics.can_tick`, so
  the ``ModelError`` for a clock-guarded urgent edge still surfaces only
  when time is asked to pass;
- a transition's clock-independent post-state (target locations,
  updated valuation, resolved resets) on its first firing whose clock
  guard passes, so an update that would break a variable bound never
  runs while its edge is clock-disabled.

Per state only the guard checks, the resets and the invariant checks
remain.
"""

from __future__ import annotations

from itertools import repeat
from operator import add

from ..core.errors import ModelError
from .transitions import (
    delay_forbidden,
    discrete_transitions,
    has_urgent_sync,
)


def check_closed_diagonal_free(network, semantics):
    """Reject strict and diagonal clock constraints; ``semantics`` names
    the integer-time semantics in the error message."""
    for process in network.processes:
        atoms = []
        for loc in process.locations:
            atoms.extend(loc.invariant)
        for edge in process.automaton.edges:
            atoms.extend(edge.guard)
        for atom in atoms:
            if atom.other is not None:
                raise ModelError(
                    f"{semantics} requires diagonal-free automata "
                    f"({process.name}: {atom!r})")
            if atom.op in ("<", ">"):
                raise ModelError(
                    f"{semantics} requires closed automata "
                    f"({process.name}: {atom!r})")


class IntegerClockSemantics:
    """What every integer-clock semantics of a frozen network shares.

    The closed/diagonal-free check, the clock caps (one past each
    clock's maximal constant), the invariant atoms per
    ``(process, location)`` with pre-resolved clock indices, and the
    bounded LRU of per-configuration memo entries (``_configs``, filled
    by the subclass).
    """

    #: names the semantics in the closed/diagonal-free error messages
    semantics_name = "integer-time semantics"

    def __init__(self, network, extra_constants=None):
        # Imported here, not at module top: the `repro.mc` package
        # imports `repro.ta`.
        from ..mc.explorecore import LRUCache
        from .zonegraph import DEFAULT_CACHE_SIZE

        self.network = network.freeze()
        check_closed_diagonal_free(network, self.semantics_name)
        #: one past the max constant: all larger values are equivalent
        self.caps = tuple(c + 1
                          for c in network.max_constants(extra_constants))
        # Cap 0 keeps the reference clock at zero under ticked().
        self._tick_caps = (0,) + self.caps[1:]
        self._configs = LRUCache(DEFAULT_CACHE_SIZE)
        # Invariant atoms resolved once per (process, location): the
        # clock indices never change, so the per-state work in
        # invariants_hold is just the holds() calls themselves.
        self._invariants = tuple(
            tuple(
                tuple((process.resolve_clock(atom.clock), atom)
                      for atom in location.invariant)
                for location in process.locations)
            for process in network.processes)

    def invariants_hold(self, locs, clocks):
        for table in map(tuple.__getitem__, self._invariants, locs):
            for index, atom in table:
                if not atom.holds(clocks[index]):
                    return False
        return True

    def ticked(self, clocks):
        """Unit delay with saturation (the reference clock stays 0)."""
        return tuple(map(min, map(add, clocks, repeat(1)), self._tick_caps))


class DiscreteState:
    """A configuration with concrete integer clock values."""

    __slots__ = ("locs", "valuation", "clocks")

    def __init__(self, locs, valuation, clocks):
        self.locs = locs
        self.valuation = valuation
        self.clocks = clocks  # tuple, index 0 unused (reference clock)

    def key(self):
        return (self.locs, self.valuation.values, self.clocks)

    def __eq__(self, other):
        return isinstance(other, DiscreteState) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"DiscreteState(locs={self.locs}, "
                f"clocks={self.clocks[1:]})")


class Move:
    """Memoised firing data of one candidate transition.

    ``guard`` pairs each clock-guard atom with its resolved global clock
    index; ``controllable`` is true when every participating edge is
    (the controller's move in a timed game).  ``post`` is the
    clock-independent post-state ``(locs, valuation, resets)``, ``None``
    until the first firing whose clock guard passes.
    """

    __slots__ = ("transition", "guard", "controllable", "post")

    def __init__(self, transition):
        self.transition = transition
        self.guard = tuple(
            (process.resolve_clock(atom.clock), atom)
            for process, atom in transition.clock_guard_atoms())
        self.controllable = all(
            edge.controllable for _process, edge in transition.participants)
        self.post = None


class _Config:
    """Memoised untimed data of one discrete configuration; ``no_delay``
    stays ``None`` until the first tick is asked for."""

    __slots__ = ("locs", "valuation", "transitions", "moves", "no_delay")

    def __init__(self, locs, valuation, transitions):
        self.locs = locs
        self.valuation = valuation
        self.transitions = transitions
        self.moves = tuple(map(Move, transitions))
        self.no_delay = None


class DiscreteSemantics(IntegerClockSemantics):
    """Tick/action transition system over integer clock valuations."""

    semantics_name = "discrete-time semantics"

    def config_for(self, locs, valuation):
        """The memoised untimed data of a configuration."""
        key = (locs, valuation.values)
        config = self._configs.get(key)
        if config is None:
            config = _Config(locs, valuation, discrete_transitions(
                self.network, locs, valuation))
            self._configs.put(key, config)
        return config

    # -- transition system --------------------------------------------------------

    def initial(self):
        locs = self.network.initial_locations()
        valuation = self.network.initial_valuation()
        clocks = (0,) * self.network.dbm_size
        if not self.invariants_hold(locs, clocks):
            raise ModelError("initial state violates invariants")
        return DiscreteState(locs, valuation, clocks)

    def _ticked_clocks(self, state):
        """The clock vector after one time unit, or ``None`` when time
        may not pass."""
        config = self.config_for(state.locs, state.valuation)
        no_delay = config.no_delay
        if no_delay is None:
            network = self.network
            no_delay = config.no_delay = (
                delay_forbidden(network, config.locs)
                or has_urgent_sync(network, config.locs, config.valuation,
                                   config.transitions))
        if no_delay:
            return None
        clocks = self.ticked(state.clocks)
        return clocks if self.invariants_hold(state.locs, clocks) else None

    def can_tick(self, state):
        """One time unit may elapse."""
        return self._ticked_clocks(state) is not None

    def tick(self, state):
        clocks = self._ticked_clocks(state)
        if clocks is None:
            return None
        return DiscreteState(state.locs, state.valuation, clocks)

    def moves(self, state):
        """All enabled discrete steps as ``(move, successor)``, where
        ``move`` is the memoised :class:`Move` of the transition."""
        config = self.config_for(state.locs, state.valuation)
        clocks = state.clocks
        out = []
        for move in config.moves:
            for index, atom in move.guard:
                if not atom.holds(clocks[index]):
                    break
            else:
                post = move.post
                if post is None:
                    transition = move.transition
                    post = move.post = (
                        transition.target_locations(config.locs),
                        transition.apply_updates(config.valuation),
                        tuple(transition.clock_resets()))
                locs, valuation, resets = post
                new_clocks = clocks
                if resets:
                    new_clocks = list(clocks)
                    for index, value in resets:
                        new_clocks[index] = value
                    new_clocks = tuple(new_clocks)
                if self.invariants_hold(locs, new_clocks):
                    out.append((move, DiscreteState(locs, valuation,
                                                    new_clocks)))
        return out

    def action_successors(self, state):
        """All enabled discrete steps as ``(transition, successor)``."""
        return [(move.transition, succ) for move, succ in self.moves(state)]

    def successors(self, state):
        """Action successors plus the tick successor (if any)."""
        out = self.action_successors(state)
        ticked = self.tick(state)
        if ticked is not None:
            out.append(("tick", ticked))
        return out
