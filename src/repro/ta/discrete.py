"""Integer-clock semantics of a network: timed and probabilistic timed
automata alike.

For *closed* timed automata (no strict comparisons) the integer-time
semantics preserves reachability and (un)controllability, which makes it
a sound substrate for the game solver (``repro.tiga``), min-cost
reachability (``repro.cora``), refinement checking (``repro.ecdar``) and
the online tester (``repro.mbt``).  For closed, diagonal-free PTA the
same semantics is the *digital-clocks* translation, which preserves
minimal and maximal reachability probabilities and expected rewards
(Kwiatkowska, Norman, Parker & Sproston): :mod:`repro.pta.digital`
explores it into an MDP and :mod:`repro.pta.simulate` samples it.  A
TA edge is a one-branch (Dirac) PTA edge, so one class,
:class:`DiscreteSemantics`, serves both; it reads every edge through
the branch view :func:`repro.ta.syntax.edge_branches` and so needs
nothing from :mod:`repro.pta`.  Clocks saturate one past their
maximal constant, so the state space is finite.  Diagonal clock
constraints are rejected: saturation would not preserve clock
differences.

Everything untimed is memoised per discrete configuration
``(locs, valuation)`` in a generation-bounded
:class:`~repro.core.memo.MemoTable` that every search and simulation
run over the instance shares: the candidate transitions, each with its
clock guard compiled into a *bound plan* (one ``(clock_index, lo,
hi)`` triple per constrained clock; closed and diagonal-free, so
``<=``, ``>=`` and ``==`` are the only atoms), its label and its
controllability.  Two parts are compiled lazily so that
no state raises an error it would not raise when handled on its own:

- a transition's branch-product outcomes (target locations, updated
  valuation, resolved resets, target invariant plan) on its first
  firing whose guard holds, so an update that would break a variable
  bound never runs while its edge is clock-disabled;
- the tick plan (the configuration's own invariant plan, ``None`` when
  a committed/urgent location or an enabled urgent synchronisation
  forbids delay) on the first tick, so the ``ModelError`` for a
  clock-guarded urgent edge surfaces only when time is asked to pass.

Per clock vector, one routine applies the guard, reset and invariant
rules: :meth:`DiscreteSemantics.expand`.  The timed-automaton views
(:meth:`~DiscreteSemantics.moves`, :meth:`~DiscreteSemantics.tick`,
:meth:`~DiscreteSemantics.action_successors`, ...) wrap it and reject
probabilistic transitions; the simulator calls it directly.

Per arena, one loop explores the whole reachable state space:
:meth:`DiscreteSemantics.explore`, which expands each state once and
writes its actions into flat buffers.  The digital-clocks MDP builder
(:func:`repro.pta.build_digital_mdp`) and the game arena
(:class:`repro.tiga.GameGraph`) both read those buffers.  CORA's cost
searches stop at goal states, and ECDAR and TRON explore on the fly,
so they call the per-state views instead.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import product, repeat
from math import inf
from operator import add

from ..core.errors import ModelError, SearchLimitError
from ..core.memo import MemoTable
from .syntax import edge_branches
from .transitions import (
    delay_forbidden,
    discrete_transitions,
    has_urgent_sync,
    run_updates,
)

#: ``_Config.tick_plan`` before the first tick asks for it
_PENDING = object()


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


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector, restoring the caller's
    ``gc.isenabled()`` state on every exit.

    An explicit-state build allocates tens of thousands of states,
    clock tuples and dicts, which would trigger full collections, yet
    creates no reference cycles (states and keys only point at
    immutable data and at one another's indices), so those collections
    would find nothing to free.  Reference counting still frees
    everything as usual.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def states_where(network, states, predicate, names_of):
    """Indices of ``states`` where ``predicate(location_names,
    valuation, clocks)`` holds.  ``names_of`` is the caller's cache of
    location names by location vector, filled as the scan meets them."""
    out = set()
    for index, state in enumerate(states):
        locs = state.locs
        names = names_of.get(locs)
        if names is None:
            names = names_of[locs] = network.location_vector_names(locs)
        if predicate(names, state.valuation, state.clocks):
            out.add(index)
    return out


def probabilistic_step_error(fire):
    """The error for a timed-automaton view asked to take ``fire``, an
    enabled transition with several branch combinations."""
    return ModelError("timed-automaton semantics cannot take the "
                      f"probabilistic transition {fire.label}")


def _bound_plan(atoms):
    """Compile ``(clock_index, atom)`` pairs into a bound plan: one
    ``(clock_index, lo, hi)`` triple per constrained clock, which holds
    when ``lo <= clocks[clock_index] <= hi``."""
    bounds = {}
    for index, atom in atoms:
        lo, hi = bounds.get(index, (-inf, inf))
        if atom.op != "<=":
            lo = max(lo, atom.bound)
        if atom.op != ">=":
            hi = min(hi, atom.bound)
        bounds[index] = (lo, hi)
    return tuple((index, lo, hi) for index, (lo, hi) in bounds.items())


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


class _Fire:
    """Compiled firing data of one candidate transition.

    ``guard`` is the clock guard's bound plan; ``controllable`` is true
    when every participating edge is (the controller's move in a timed
    game).  ``outcomes`` stays ``None`` until the first firing whose
    guard holds; then it is the branch-product distribution with
    everything clock-independent applied: ``(probability, locs,
    valuation, resets, invariant)`` with resolved
    ``(clock_index, value)`` resets and the target locations'
    invariant plan.  ``dirac``, set with ``outcomes``, records whether
    the transition had a single branch combination, which decides what
    a broken target invariant means in
    :meth:`DiscreteSemantics.expand`, and ``mass`` the sum of the
    outcome probabilities, which the digital-clocks builder checks
    against 1.
    """

    __slots__ = ("transition", "label", "guard", "controllable",
                 "outcomes", "dirac", "mass")

    def __init__(self, transition):
        self.transition = transition
        self.label = transition.describe()
        self.guard = _bound_plan(
            (process.resolve_clock(atom.clock), atom)
            for process, atom in transition.clock_guard_atoms())
        self.controllable = all(
            edge.controllable for _process, edge in transition.participants)
        self.outcomes = None
        self.dirac = None
        self.mass = None


class _Config:
    """Memoised untimed data of one discrete configuration: its fires
    and its tick plan (``_PENDING`` until the first tick)."""

    __slots__ = ("locs", "valuation", "fires", "tick_plan")

    def __init__(self, locs, valuation, fires):
        self.locs = locs
        self.valuation = valuation
        self.fires = fires
        self.tick_plan = _PENDING


class DiscreteSemantics:
    """Tick/action transition system over integer clock valuations of a
    frozen TA or PTA network.

    One instance serves any number of searches, builds and simulation
    runs over the same network; :func:`repro.pta.digital_semantics`
    shares one per network.
    """

    def __init__(self, network, extra_constants=None):
        self.network = network.freeze()
        check_closed_diagonal_free(network, "integer-clock semantics")
        # One past each maximal constant (all larger values are
        # equivalent); cap 0 keeps the reference clock at zero.
        self._caps = (0,) + tuple(
            c + 1 for c in network.max_constants(extra_constants))[1:]
        self._configs = MemoTable()
        #: locs -> bound plan of the location vector's invariant
        self._invariant_plans = {}

    def _holding(self, clocks):
        """A view of this semantics in which the clocks at the indices
        ``clocks`` never advance (cap 0).  It shares every memoised
        table with ``self``, whose caps stay as they are: the
        digital-clocks builder explores its projection with it."""
        from copy import copy

        view = copy(self)
        view._caps = tuple(0 if index in clocks else cap
                           for index, cap in enumerate(self._caps))
        return view

    def _invariant_plan(self, locs):
        """The memoised bound plan of a location vector's invariant."""
        plan = self._invariant_plans.get(locs)
        if plan is None:
            plan = self._invariant_plans[locs] = _bound_plan(
                (process.resolve_clock(atom.clock), atom)
                for process, loc in zip(self.network.processes, locs)
                for atom in process.location(loc).invariant)
        return plan

    def config_for(self, locs, valuation):
        """The memoised untimed data of a configuration."""
        key = (locs, valuation.values)
        config = self._configs.get(key)
        if config is None:
            config = _Config(locs, valuation, tuple(map(
                _Fire, discrete_transitions(self.network, locs, valuation))))
            self._configs.add(key, config)
        return config

    def _compile_outcomes(self, config, fire):
        """Fill in ``fire.outcomes``, ``fire.dirac`` and ``fire.mass``;
        an update that raises leaves them unset."""
        participants = fire.transition.participants
        combos = list(product(*[edge_branches(edge)
                                for _process, edge in participants]))
        outcomes = []
        for combo in combos:
            probability = 1.0
            locs = list(config.locs)
            env = config.valuation.env()
            resets = []
            for (process, _edge), branch in zip(participants, combo):
                probability *= branch.probability
                locs[process.index] = process.location_index[branch.target]
                run_updates(branch.update, env)
                for clock, value in branch.resets:
                    resets.append((process.resolve_clock(clock), value))
            if probability <= 0.0:
                continue
            locs = tuple(locs)
            outcomes.append((probability, locs, env.commit(), tuple(resets),
                             self._invariant_plan(locs)))
        fire.dirac = len(combos) == 1
        fire.mass = sum(outcome[0] for outcome in outcomes)
        fire.outcomes = outcomes = tuple(outcomes)
        return outcomes

    def _compile_tick_plan(self, config):
        """Fill in ``config.tick_plan``; a check that raises leaves it
        pending."""
        network, locs = self.network, config.locs
        no_delay = (delay_forbidden(network, locs)
                    or has_urgent_sync(network, locs, config.valuation,
                                       [fire.transition
                                        for fire in config.fires]))
        plan = config.tick_plan = \
            None if no_delay else self._invariant_plan(locs)
        return plan

    def expand(self, config, clocks, actions=True, tick=True):
        """The successors of clock vector ``clocks`` in configuration
        ``config``: ``(fires, ticked)``.

        ``fires`` lists ``(fire, outcomes)`` for every fire whose guard
        holds, with ``outcomes`` a list of ``(probability, locs,
        valuation, clocks)``.  A *Dirac* step into an
        invariant-violating state is simply disabled and left out
        (UPPAAL's semantics for plain edges); a genuinely
        probabilistic step with *some* violating branches leaves the
        distribution undefined and is a model error.  ``ticked`` is the
        unit-delay clock vector, or ``None`` when delay is forbidden or
        the ticked clocks break the invariant.  ``actions=False`` or
        ``tick=False`` skips that half, and with it the half's lazy
        compilation and its errors.
        """
        fires = []
        if actions:
            for fire in config.fires:
                for index, lo, hi in fire.guard:
                    if not lo <= clocks[index] <= hi:
                        break
                else:
                    outcomes = fire.outcomes
                    if outcomes is None:
                        outcomes = self._compile_outcomes(config, fire)
                    enabled = []
                    for probability, locs, valuation, resets, invariant \
                            in outcomes:
                        new_clocks = clocks
                        if resets:
                            new_clocks = list(clocks)
                            for index, value in resets:
                                new_clocks[index] = value
                            new_clocks = tuple(new_clocks)
                        for index, lo, hi in invariant:
                            if not lo <= new_clocks[index] <= hi:
                                break
                        else:
                            enabled.append(
                                (probability, locs, valuation, new_clocks))
                            continue
                        if fire.dirac:
                            break  # Dirac step: the edge is disabled
                        raise ModelError(
                            "probabilistic branch violates the target "
                            f"invariant (transition {fire.label})")
                    else:
                        if enabled:
                            fires.append((fire, enabled))
        ticked = None
        if tick:
            plan = config.tick_plan
            if plan is _PENDING:
                plan = self._compile_tick_plan(config)
            if plan is not None:
                ticked = tuple(map(min, map(add, clocks, repeat(1)),
                                   self._caps))
                for index, lo, hi in plan:
                    if not lo <= ticked[index] <= hi:
                        ticked = None
                        break
        return fires, ticked

    def explore(self, initial, max_states, what):
        """Explore every state reachable from ``initial``, a
        :class:`DiscreteState`, into flat buffers.

        Returns ``(states, sources, fires, ends, targets, probs)``:
        ``states`` lists the interned states by index; per action,
        ``sources`` holds its state's index, ``fires`` its fire
        (``None`` for a tick) and ``ends`` the end offset of its
        transitions; per transition, ``targets`` holds the target's
        index and ``probs`` its probability.  Each state's actions are
        contiguous: its fires in candidate order, then its tick.

        States are expanded in LIFO order, once each, and a
        :class:`DiscreteState` is created only for a newly interned
        state.  A fire's outcomes that reach one state are merged into
        one transition carrying their summed probability, and the
        fire's ``mass`` is checked against 1.  Interning state number
        ``max_states + 1`` raises
        :class:`~repro.core.errors.SearchLimitError` naming ``what``.
        """
        config_for = self.config_for
        configs = self._configs
        expand = self.expand
        sources, fires_of, ends = [], [], []
        targets, probs = [], []
        add_source = sources.append
        add_fire = fires_of.append
        add_end = ends.append
        add_target = targets.append
        add_prob = probs.append

        #: (locs, valuation values) -> {clocks: state index}; keyed by
        #: the clock vector the new state already holds, so interning a
        #: state allocates no key tuple of its own
        index_of = {}
        states = []
        queue = []

        def intern(locs, valuation, clocks):
            key = (locs, valuation.values)
            table = index_of.get(key)
            if table is None:
                table = index_of[key] = {}
            idx = table.get(clocks)
            if idx is None:
                idx = len(states)
                if idx >= max_states:
                    raise SearchLimitError(
                        f"{what} exceeds {max_states} states",
                        limit=max_states)
                table[clocks] = idx
                states.append(DiscreteState(locs, valuation, clocks))
                queue.append(idx)
            return idx

        intern(initial.locs, initial.valuation, initial.clocks)
        m = 0   # transitions appended so far

        while queue:
            current = queue.pop()
            state = states[current]
            locs, valuation = state.locs, state.valuation
            config = configs.get((locs, valuation.values))
            if config is None:
                config = config_for(locs, valuation)
            fires, ticked = expand(config, state.clocks)
            for fire, outcomes in fires:
                if len(outcomes) == 1:
                    ((p, to_locs, to_valuation, to_clocks),) = outcomes
                    add_target(intern(to_locs, to_valuation, to_clocks))
                    add_prob(p)
                    m += 1
                else:
                    # A state reached by several outcomes gets one
                    # transition carrying their summed probability.
                    start = m
                    for p, to_locs, to_valuation, to_clocks in outcomes:
                        target = intern(to_locs, to_valuation, to_clocks)
                        for j in range(start, m):
                            if targets[j] == target:
                                probs[j] += p
                                break
                        else:
                            add_target(target)
                            add_prob(p)
                            m += 1
                mass = fire.mass
                if mass != 1.0 and not abs(mass - 1.0) <= 1e-9:
                    raise ModelError(
                        f"action probabilities sum to {mass}, expected 1")
                add_source(current)
                add_fire(fire)
                add_end(m)
            if ticked is not None:
                add_target(intern(locs, valuation, ticked))
                add_prob(1.0)
                m += 1
                add_source(current)
                add_fire(None)
                add_end(m)
        return states, sources, fires_of, ends, targets, probs

    # -- timed-automaton views ----------------------------------------------------

    def initial(self):
        network = self.network
        locs = network.initial_locations()
        clocks = (0,) * network.dbm_size
        for index, lo, hi in self._invariant_plan(locs):
            if not lo <= clocks[index] <= hi:
                raise ModelError("initial state violates invariants")
        return DiscreteState(locs, network.initial_valuation(), clocks)

    def moves(self, state):
        """All enabled discrete steps as ``(fire, successor)``; a fire
        carries its ``transition``, ``label`` and ``controllable``
        flag."""
        fires, _ticked = self.expand(
            self.config_for(state.locs, state.valuation), state.clocks,
            tick=False)
        out = []
        for fire, outcomes in fires:
            if not fire.dirac:
                raise probabilistic_step_error(fire)
            _probability, locs, valuation, clocks = outcomes[0]
            out.append((fire, DiscreteState(locs, valuation, clocks)))
        return out

    def action_successors(self, state):
        """All enabled discrete steps as ``(transition, successor)``."""
        return [(fire.transition, succ) for fire, succ in self.moves(state)]

    def tick(self, state):
        """The successor after one time unit, or ``None`` when time may
        not pass."""
        _fires, clocks = self.expand(
            self.config_for(state.locs, state.valuation), state.clocks,
            actions=False)
        if clocks is None:
            return None
        return DiscreteState(state.locs, state.valuation, clocks)

    def can_tick(self, state):
        """One time unit may elapse."""
        return self.tick(state) is not None

    def successors(self, state):
        """Action successors plus the tick successor (if any)."""
        out = self.action_successors(state)
        ticked = self.tick(state)
        if ticked is not None:
            out.append(("tick", ticked))
        return out
