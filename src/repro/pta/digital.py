"""The digital clocks translation: PTA network -> finite MDP.

For closed, diagonal-free PTA, interpreting clocks over the integers
(with a unit-delay ``tick`` action and saturation one past each clock's
maximal constant) preserves minimal and maximal reachability
probabilities and expected rewards (Kwiatkowska, Norman, Parker &
Sproston) — this is how mcpta feeds PRISM in the paper, and how Table I's
exact BRP probabilities are produced here.

Tick actions carry reward 1, so expected *time* equals expected total
reward in the resulting MDP.

All untimed firing data is memoised per discrete configuration in
:class:`DigitalSemantics`, mirroring what ``ta/zonegraph.py`` does for
the zone engines: candidate transitions, the branch-product outcome
distributions (resolved clock resets, committed valuations, target
location vectors) and the delay-forbidden flag are computed once per
``(locs, valuation)`` and shared by every clock vector that reaches the
configuration.  Clock constraints are compiled into *bound plans*, one
``(clock_index, lo, hi)`` triple per constrained clock: each fire's
guard, each outcome's target invariant, and the configuration's own
invariant for the tick (``None`` when delay is forbidden).  The
semantics is closed and diagonal-free, so ``<=``, ``>=`` and ``==`` are
the only atoms to compile; invariant plans are cached per location
vector.

One routine applies the guard, reset and invariant rules to a clock
vector: :meth:`DigitalSemantics.expand`.  :func:`build_digital_mdp`
calls it directly and creates a :class:`DigitalState` only for a newly
interned state; :meth:`DigitalSemantics.successors` wraps its outcomes
into states for the :class:`~repro.pta.simulate.DigitalSimulator`
(modes).  Both obtain a shared per-network instance from
:func:`digital_semantics`; the simulator also keeps one step plan per
visited state in the instance's bounded ``step_plans`` table.

The pre-memoization builder is preserved verbatim in
:mod:`repro.mdp.reference` as the differential-test oracle.
"""

from __future__ import annotations

from itertools import product
from math import inf
from weakref import WeakKeyDictionary

from ..core.errors import ModelError, SearchLimitError
from ..mdp.model import MDP
from ..obs import checkpoint
from ..ta.discrete import IntegerClockSemantics
from ..ta.transitions import (
    delay_forbidden,
    discrete_transitions,
    has_urgent_sync,
)
from .pta import edge_branches


class DigitalState:
    """A digital-clocks configuration (hashable)."""

    __slots__ = ("locs", "valuation", "clocks")

    def __init__(self, locs, valuation, clocks):
        self.locs = locs
        self.valuation = valuation
        self.clocks = clocks

    def key(self):
        return (self.locs, self.valuation.values, self.clocks)


class DigitalMDP:
    """The result of the translation: an MDP plus state metadata."""

    def __init__(self, mdp, states, network):
        self.mdp = mdp
        self.states = states          # index -> DigitalState
        self.network = network
        self._names_by_locs = {}      # locs tuple -> location name vector

    def _names(self, locs):
        names = self._names_by_locs.get(locs)
        if names is None:
            names = self.network.location_vector_names(locs)
            self._names_by_locs[locs] = names
        return names

    def states_where(self, predicate):
        """Indices of states satisfying ``predicate(locs_names, valuation,
        clocks)``."""
        out = set()
        for index, state in enumerate(self.states):
            if predicate(self._names(state.locs), state.valuation,
                         state.clocks):
                out.add(index)
        return out

    def location_states(self, process_name, location_name):
        """Indices of states where a process stands in a location."""
        process = self.network.process_by_name(process_name)

        def predicate(names, _valuation, _clocks):
            return names[process.index] == location_name

        return self.states_where(predicate)

    def __repr__(self):
        return f"DigitalMDP({self.mdp.num_states} states)"


class _Fire:
    """Pre-encoded firing data of one candidate transition.

    ``guard`` is the clock guard's bound plan (see :func:`_bound_plan`);
    ``outcomes`` is the joint branch-product distribution with
    everything clock-independent already applied — probability, target
    location vector, committed valuation, resolved
    ``(clock_index, value)`` resets and the target locations' invariant
    bound plan.  ``dirac`` records whether the transition had a single
    branch combination (which decides the invariant-violation semantics
    in :meth:`DigitalSemantics.expand`).
    """

    __slots__ = ("transition", "label", "guard", "outcomes", "dirac")

    def __init__(self, transition, label, guard, outcomes, dirac):
        self.transition = transition
        self.label = label
        self.guard = guard
        self.outcomes = outcomes
        self.dirac = dirac


class _DigitalConfig:
    """Memoised untimed data of one discrete configuration: its fires
    and the bound plan of its own invariant for the tick, ``None`` when
    delay is forbidden."""

    __slots__ = ("fires", "tick_bounds")

    def __init__(self, fires, tick_bounds):
        self.fires = fires
        self.tick_bounds = tick_bounds


def _bound_plan(atoms):
    """Compile ``(clock_index, atom)`` pairs into a bound plan: one
    ``(clock_index, lo, hi)`` triple per constrained clock, which holds
    when ``lo <= clocks[clock_index] <= hi``.

    The semantics is closed and diagonal-free, so every atom is a
    ``<=``, ``>=`` or ``==`` against an integer bound.
    """
    bounds = {}
    for index, atom in atoms:
        lo, hi = bounds.get(index, (-inf, inf))
        if atom.op != "<=":
            lo = max(lo, atom.bound)
        if atom.op != ">=":
            hi = min(hi, atom.bound)
        bounds[index] = (lo, hi)
    return tuple((index, lo, hi) for index, (lo, hi) in bounds.items())


class DigitalSemantics(IntegerClockSemantics):
    """Memoised digital-clocks semantics of a frozen PTA network.

    Holds the per-``(locs, valuation)`` firing tables (bounded LRU, as
    in the zone graph) and the per-location-vector invariant bound
    plans; the invariant atoms, clock caps and the unit delay come from
    :class:`~repro.ta.discrete.IntegerClockSemantics`.  One instance
    serves any number of builds and simulation runs over the same
    network.
    """

    semantics_name = "digital-clocks semantics"

    def __init__(self, network, extra_constants=None):
        from ..mc.explorecore import LRUCache

        super().__init__(network, extra_constants)
        #: locs -> bound plan of the location vector's invariant
        self._invariant_plans = {}
        #: state key -> the simulator's step plan, bounded like the
        #: config table and filled by
        #: :class:`~repro.pta.simulate.DigitalSimulator`
        self.step_plans = LRUCache()

    def initial_state(self):
        network = self.network
        state = DigitalState(
            network.initial_locations(), network.initial_valuation(),
            (0,) * network.dbm_size)
        if not self.invariants_hold(state.locs, state.clocks):
            raise ModelError("initial state violates invariants")
        return state

    def _invariant_plan(self, locs):
        """The memoised bound plan of a location vector's invariant."""
        plan = self._invariant_plans.get(locs)
        if plan is None:
            plan = self._invariant_plans[locs] = _bound_plan(
                pair for table in map(tuple.__getitem__,
                                      self._invariants, locs)
                for pair in table)
        return plan

    def config_for(self, locs, valuation):
        """The memoised :class:`_DigitalConfig` of a configuration."""
        key = (locs, valuation.values)
        config = self._configs.get(key)
        if config is not None:
            return config
        network = self.network
        transitions = tuple(discrete_transitions(network, locs, valuation))
        fires = []
        for transition in transitions:
            guard = _bound_plan(
                (process.resolve_clock(atom.clock), atom)
                for process, atom in transition.clock_guard_atoms())
            combos = list(product(*[edge_branches(edge)
                                    for _process, edge in
                                    transition.participants]))
            outcomes = []
            for combo in combos:
                probability = 1.0
                new_locs = list(locs)
                env = valuation.env()
                resets = []
                for (process, _edge), branch in zip(
                        transition.participants, combo):
                    probability *= branch.probability
                    new_locs[process.index] = \
                        process.location_index[branch.target]
                    for update in branch.update:
                        if callable(update):
                            update(env)
                        else:
                            update.apply(env)
                    for clock, value in branch.resets:
                        resets.append((process.resolve_clock(clock), value))
                if probability <= 0.0:
                    continue
                new_locs = tuple(new_locs)
                outcomes.append((probability, new_locs, env.commit(),
                                 tuple(resets),
                                 self._invariant_plan(new_locs)))
            fires.append(_Fire(transition, transition.describe(), guard,
                               tuple(outcomes), len(combos) == 1))
        no_delay = (delay_forbidden(network, locs)
                    or has_urgent_sync(network, locs, valuation, transitions))
        config = _DigitalConfig(
            tuple(fires), None if no_delay else self._invariant_plan(locs))
        self._configs.put(key, config)
        return config

    def expand(self, config, clocks):
        """The successors of clock vector ``clocks`` in configuration
        ``config``: ``(fires, ticked)``.

        ``fires`` lists ``(fire, outcomes)`` for every fire whose guard
        holds, with ``outcomes`` a list of ``(probability, locs,
        valuation, clocks)``.  A *Dirac* step into an
        invariant-violating state is simply disabled and left out
        (UPPAAL's semantics for plain edges); a genuinely probabilistic
        step with only *some* violating branches leaves the
        distribution undefined and is a model error.  ``ticked`` is the
        unit-delay clock vector, or ``None`` when delay is forbidden or
        the ticked clocks break the invariant.
        """
        fires = []
        for fire in config.fires:
            for index, lo, hi in fire.guard:
                if not lo <= clocks[index] <= hi:
                    break
            else:
                outcomes = []
                for probability, locs, valuation, resets, invariant \
                        in fire.outcomes:
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
                        outcomes.append(
                            (probability, locs, valuation, new_clocks))
                        continue
                    if fire.dirac:
                        break  # Dirac step: the edge is simply disabled
                    raise ModelError(
                        "probabilistic branch violates the target "
                        f"invariant (transition {fire.label})")
                else:
                    if outcomes:
                        fires.append((fire, outcomes))
        ticked = None
        bounds = config.tick_bounds
        if bounds is not None:
            ticked = self.ticked(clocks)
            for index, lo, hi in bounds:
                if not lo <= ticked[index] <= hi:
                    ticked = None
                    break
        return fires, ticked

    def successors(self, state):
        """:meth:`expand` of a digital state, with every successor
        wrapped in a :class:`DigitalState`: ``(fires, ticked)``, where
        ``fires`` lists ``(fire, [(probability, DigitalState), ...])``
        and ``ticked`` is the unit-delay successor or ``None``."""
        locs, valuation = state.locs, state.valuation
        fires, ticked = self.expand(self.config_for(locs, valuation),
                                    state.clocks)
        fires = [(fire, [(p, DigitalState(to_locs, to_valuation, to_clocks))
                         for p, to_locs, to_valuation, to_clocks
                         in outcomes])
                 for fire, outcomes in fires]
        if ticked is not None:
            ticked = DigitalState(locs, valuation, ticked)
        return fires, ticked


#: network -> {constants key -> DigitalSemantics}; weak so dropping the
#: network drops its memoised tables.
_SEMANTICS = WeakKeyDictionary()


def digital_semantics(network, extra_constants=None):
    """The shared :class:`DigitalSemantics` of a network.

    Builder and simulators all draw from here, so e.g. the thousands of
    per-seed :class:`~repro.pta.simulate.DigitalSimulator` instances a
    modes run creates share one set of firing tables.
    """
    per_network = _SEMANTICS.get(network)
    if per_network is None:
        per_network = {}
        _SEMANTICS[network] = per_network
    key = (None if not extra_constants
           else tuple(sorted(extra_constants.items())))
    semantics = per_network.get(key)
    if semantics is None:
        semantics = DigitalSemantics(network, extra_constants)
        per_network[key] = semantics
    return semantics


def build_digital_mdp(network, extra_constants=None, time_reward=True,
                      max_states=2000000):
    """Explore the digital-clocks semantics into a :class:`DigitalMDP`.

    Successors come from :meth:`DigitalSemantics.expand`; a
    :class:`DigitalState` is created only for a newly interned key.
    """
    sem = digital_semantics(network, extra_constants)
    config_for = sem.config_for
    expand = sem.expand
    mdp = MDP(network.name)
    add_state = mdp.add_state
    add_action = mdp.add_action
    initial = sem.initial_state()
    tick_reward = 1.0 if time_reward else 0.0

    #: (locs, valuation values) -> {clocks: state index}; keyed by the
    #: clock vector the new state already holds, so interning a state
    #: allocates no key tuple of its own
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
                    f"digital MDP exceeds {max_states} states",
                    limit=max_states)
            add_state()
            table[clocks] = idx
            states.append(DigitalState(locs, valuation, clocks))
            queue.append(idx)
            if not len(states) & 4095:
                checkpoint("pta.digital", len(states))
        return idx

    intern(initial.locs, initial.valuation, initial.clocks)
    # Build-local, so the shared LRU pays its recency bookkeeping once
    # per configuration rather than once per state.
    configs = {}

    while queue:
        current = queue.pop()
        state = states[current]
        locs, valuation = state.locs, state.valuation
        key = (locs, valuation.values)
        config = configs.get(key)
        if config is None:
            config = configs[key] = config_for(locs, valuation)
        fires, ticked = expand(config, state.clocks)
        for fire, outcomes in fires:
            add_action(current,
                       [(p, intern(to_locs, to_valuation, to_clocks))
                        for p, to_locs, to_valuation, to_clocks in outcomes],
                       label=fire.label, reward=0.0)
        if ticked is not None:
            add_action(current, [(1.0, intern(locs, valuation, ticked))],
                       label="tick", reward=tick_reward)
    checkpoint("pta.digital", len(states))
    return DigitalMDP(mdp, states, network)
