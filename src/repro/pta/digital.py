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
configuration — both by :func:`build_digital_mdp` and by the
:class:`~repro.pta.simulate.DigitalSimulator` (modes), which obtain a
shared per-network instance from :func:`digital_semantics`.  Both take
a state's successors from :meth:`DigitalSemantics.successors`; the
simulator also keeps one step plan per visited state in the instance's
bounded ``step_plans`` table.

The pre-memoization builder is preserved verbatim in
:mod:`repro.mdp.reference` as the differential-test oracle.
"""

from __future__ import annotations

from itertools import product
from weakref import WeakKeyDictionary

from ..core.errors import ModelError, SearchLimitError
from ..mdp.model import MDP
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

    ``guard`` pairs each clock-guard atom with its resolved global
    clock index; ``outcomes`` is the joint branch-product distribution
    with everything clock-independent already applied — probability,
    target location vector, committed valuation, and resolved
    ``(clock_index, value)`` resets.  ``dirac`` records whether the
    transition had a single branch combination (which decides the
    invariant-violation semantics in :meth:`DigitalSemantics.fire`).
    """

    __slots__ = ("transition", "label", "guard", "outcomes", "dirac")

    def __init__(self, transition, label, guard, outcomes, dirac):
        self.transition = transition
        self.label = label
        self.guard = guard
        self.outcomes = outcomes
        self.dirac = dirac


class _DigitalConfig:
    """Memoised untimed data of one discrete configuration."""

    __slots__ = ("fires", "no_delay")

    def __init__(self, fires, no_delay):
        self.fires = fires
        self.no_delay = no_delay


class DigitalSemantics(IntegerClockSemantics):
    """Memoised digital-clocks semantics of a frozen PTA network.

    Holds the per-``(locs, valuation)`` firing tables (bounded LRU, as
    in the zone graph); the invariant tables, clock caps and the unit
    delay come from :class:`~repro.ta.discrete.IntegerClockSemantics`.
    One instance serves any number of builds and simulation runs over
    the same network.
    """

    semantics_name = "digital-clocks semantics"

    def __init__(self, network, extra_constants=None):
        from ..mc.explorecore import LRUCache

        super().__init__(network, extra_constants)
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
            guard = tuple(
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
                outcomes.append((probability, tuple(new_locs),
                                 env.commit(), tuple(resets)))
            fires.append(_Fire(transition, transition.describe(), guard,
                               tuple(outcomes), len(combos) == 1))
        no_delay = (delay_forbidden(network, locs)
                    or has_urgent_sync(network, locs, valuation, transitions))
        config = _DigitalConfig(tuple(fires), no_delay)
        self._configs.put(key, config)
        return config

    def fire(self, fire, clocks):
        """All probabilistic outcomes of firing ``fire`` from ``clocks``.

        Returns a list of ``(probability, DigitalState)``.  A *Dirac*
        step into an invariant-violating state is simply disabled (the
        empty list — UPPAAL's semantics for plain edges); a genuinely
        probabilistic step with only *some* violating branches leaves
        the distribution undefined and is a model error.
        """
        results = []
        for probability, locs, valuation, resets in fire.outcomes:
            new_clocks = list(clocks)
            for index, value in resets:
                new_clocks[index] = value
            new_clocks = tuple(new_clocks)
            if not self.invariants_hold(locs, new_clocks):
                if fire.dirac:
                    return []  # Dirac step: the edge is simply disabled
                raise ModelError(
                    "probabilistic branch violates the target invariant "
                    f"(transition {fire.label})")
            results.append(
                (probability, DigitalState(locs, valuation, new_clocks)))
        return results

    def successors(self, state):
        """The successor data of a digital state: ``(fires, ticked)``.

        ``fires`` lists ``(fire, outcomes)`` for every clock-enabled
        fire whose :meth:`fire` outcome list is not empty (a disabled
        Dirac step is left out); ``ticked`` is the unit-delay successor
        state, or ``None`` when delay is forbidden or the ticked clocks
        break an invariant.
        """
        config = self.config_for(state.locs, state.valuation)
        clocks = state.clocks
        fires = []
        for fire in config.fires:
            if all(atom.holds(clocks[index])
                   for index, atom in fire.guard):
                outcomes = self.fire(fire, clocks)
                if outcomes:
                    fires.append((fire, outcomes))
        ticked = None
        if not config.no_delay:
            ticked_clocks = self.ticked(clocks)
            if self.invariants_hold(state.locs, ticked_clocks):
                ticked = DigitalState(state.locs, state.valuation,
                                      ticked_clocks)
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
                      max_states=2000000, semantics=None):
    """Explore the digital-clocks semantics into a :class:`DigitalMDP`."""
    sem = (semantics if semantics is not None
           else digital_semantics(network, extra_constants))
    mdp = MDP(network.name)
    initial = sem.initial_state()

    index_of = {initial.key(): 0}
    states = [initial]
    mdp.add_state()
    queue = [0]

    def intern(state):
        key = state.key()
        idx = index_of.get(key)
        if idx is None:
            if len(states) >= max_states:
                raise SearchLimitError(
                    f"digital MDP exceeds {max_states} states",
                    limit=max_states)
            idx = mdp.add_state()
            index_of[key] = idx
            states.append(state)
            queue.append(idx)
        return idx

    while queue:
        current = queue.pop()
        fires, ticked = sem.successors(states[current])
        for fire, outcomes in fires:
            pairs = [(p, intern(s)) for p, s in outcomes]
            mdp.add_action(current, pairs, label=fire.label, reward=0.0)
        if ticked is not None:
            mdp.add_action(current, [(1.0, intern(ticked))], label="tick",
                           reward=1.0 if time_reward else 0.0)
    return DigitalMDP(mdp, states, network)
