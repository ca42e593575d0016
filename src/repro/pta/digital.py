"""The digital clocks translation: PTA network -> finite MDP.

For closed, diagonal-free PTA, interpreting clocks over the integers
(with a unit-delay ``tick`` action and saturation one past each clock's
maximal constant) preserves minimal and maximal reachability
probabilities and expected rewards (Kwiatkowska, Norman, Parker &
Sproston) — this is how mcpta feeds PRISM in the paper, and how Table I's
exact BRP probabilities are produced here.

Tick actions carry reward 1, so expected *time* equals expected total
reward in the resulting MDP.

The semantics itself is the integer-clock semantics of
:class:`~repro.ta.discrete.DiscreteSemantics`, which treats a TA edge as
a one-branch PTA edge: it memoises the untimed firing data per discrete
configuration and applies the guard, reset and invariant rules to a
clock vector in one routine, :meth:`~repro.ta.discrete.DiscreteSemantics.expand`.
:func:`build_digital_mdp` runs the one explorer of that semantics,
:meth:`~repro.ta.discrete.DiscreteSemantics.explore`, which the game
arena (:class:`repro.tiga.GameGraph`) runs too.  Builder and the
:class:`~repro.pta.simulate.DigitalSimulator` (modes) obtain a shared
per-network instance from :func:`digital_semantics`, which also
carries the simulator's generation-bounded ``step_plans`` table.  The
instance is one of the network's derived tables
(:meth:`~repro.ta.Network.derived`), so dropping the network drops it
with its tables and plans.

The builder writes the MDP flat from the start: the explorer's buffers
(per action its source and transition end offset, per transition its
target and probability) become the construction buffers of
:class:`~repro.mdp.MDP`, the layout :meth:`~repro.mdp.MDP.add_action`
writes, and each action's label and reward follow from its fire.  The
explorer checks each fire's outcome mass against 1 and merges the
outcomes of a multi-outcome fire that reach one state, as
``add_action`` would.  :meth:`~repro.mdp.MDP.finalize` then groups the
actions by source state in one vectorised step, since the explorer
expands states in LIFO order, not index order.

A *free-running* clock, one that no invariant, guard or branch reset
names (Table I's deadline clock ``t``), influences neither which
actions are enabled nor where they lead.  The builder therefore
explores a network with such clocks held at 0, through a view of the
shared semantics that caps them at 0, and unfolds that projection by
one tick counter k in :func:`_unfold`: a fire keeps k, a tick takes it
to ``min(k + 1, top)``, and each free-running clock reads
``min(k, its cap)``.  Several such clocks share the counter, since
all of them start at 0 and none is ever reset.  The unfold replays the
exploration's LIFO interning over integer keys, so states are numbered
exactly as a direct exploration numbers them, and fills the MDP's
buffers vectorised.  On Table I's Dmax network the projection has
1,463 states and the product 68,364.

The builder pauses the cyclic garbage collector around the
exploration and the unfold (:func:`~repro.ta.discrete.gc_paused`):
they create no reference cycles, so full collections would find
nothing to free, and the caller's ``gc.isenabled()`` state is restored
even when the build raises.

The MDP layer (and with it numpy) is imported only when an MDP is
built, so a simulation-only client of :func:`digital_semantics` never
loads it.

The pre-memoization builder is preserved verbatim in
:mod:`repro.mdp.reference` as the differential-test oracle.
"""

from __future__ import annotations

from ..core.errors import SearchLimitError
from ..core.memo import PlanTable
from ..obs import span
from ..ta.discrete import (
    DiscreteSemantics,
    DiscreteState,
    gc_paused,
    states_where,
)
from ..ta.syntax import edge_branches


class DigitalMDP:
    """The result of the translation: an MDP plus state metadata."""

    def __init__(self, mdp, states, network):
        self.mdp = mdp
        self.states = states          # index -> DiscreteState
        self.network = network
        self._names_by_locs = {}      # locs tuple -> location name vector

    def states_where(self, predicate):
        """Indices of states satisfying ``predicate(locs_names, valuation,
        clocks)``."""
        return states_where(self.network, self.states, predicate,
                            self._names_by_locs)

    def location_states(self, process_name, location_name):
        """Indices of states where a process stands in a location."""
        process = self.network.process_by_name(process_name)
        at = process.resolve_location(location_name)
        return {index for index, state in enumerate(self.states)
                if state.locs[process.index] == at}

    def __repr__(self):
        return f"DigitalMDP({self.mdp.num_states} states)"


def digital_semantics(network, extra_constants=None):
    """The shared :class:`~repro.ta.discrete.DiscreteSemantics` of a
    network.

    Builder and simulators all draw from here, so e.g. the thousands of
    per-seed :class:`~repro.pta.simulate.DigitalSimulator` instances a
    modes run creates share one set of firing tables.  The instance is
    one of the network's :meth:`~repro.ta.Network.derived` tables, so it
    lives as long as the network does.  Its ``step_plans`` is the
    simulator's :class:`~repro.core.memo.PlanTable`, which maps a state
    key to its linked step plan.
    """
    return network.derived(_shared_semantics, extra_constants)


def _shared_semantics(network, extra_constants):
    semantics = DiscreteSemantics(network, extra_constants)
    semantics.step_plans = PlanTable()
    return semantics


def _observer_clocks(network):
    """The free-running clocks of a network: every clock index but the
    reference clock 0 that no invariant, guard or branch reset names."""
    named = set()
    for process in network.processes:
        resolve = process.resolve_clock
        for location in process.locations:
            named.update(resolve(atom.clock) for atom in location.invariant)
        for edge in process.automaton.edges:
            named.update(resolve(atom.clock) for atom in edge.guard)
            for branch in edge_branches(edge):
                named.update(resolve(clock) for clock, _value in branch.resets)
    return tuple(i for i in range(1, network.dbm_size) if i not in named)


def build_digital_mdp(network, extra_constants=None, max_states=2000000):
    """Explore the digital-clocks semantics into a :class:`DigitalMDP`.

    The states and the MDP's buffers come from
    :meth:`~repro.ta.discrete.DiscreteSemantics.explore`; a tick
    carries reward 1 and a fire, labelled by its edges, reward 0.  A
    network with free-running clocks is explored with those clocks
    held at 0 and then unfolded by a tick counter (:func:`_unfold`).
    The cyclic garbage collector is paused while the state space is
    built (see the module docstring).
    """
    from ..mdp.model import MDP

    sem = digital_semantics(network, extra_constants)
    observers = _observer_clocks(sem.network)
    caps = sem._caps
    if observers:
        sem = sem._holding(observers)
    mdp = MDP(network.name)
    with gc_paused():
        states, mdp._source, fires, mdp._end, mdp._target, mdp._prob = \
            sem.explore(sem.initial(), max_states, "digital MDP")
        mdp._label = ["tick" if fire is None else fire.label
                      for fire in fires]
        mdp._reward = [1.0 if fire is None else 0.0 for fire in fires]
        mdp.num_states = len(states)
        if observers:
            mdp, states = _unfold(mdp, states, observers, caps, max_states)
    return DigitalMDP(mdp, states, network)


def _unfold(projection, states, observers, caps, max_states):
    """The digital MDP of a network with free-running clocks
    ``observers``, from its projection: the MDP ``projection`` and its
    ``states``, explored with those clocks held at 0.

    The MDP is the projection times a tick counter k in ``[0, top]``,
    ``top`` the largest observer cap: a fire keeps k, a tick takes k to
    ``min(k + 1, top)``, and observer clock ``i`` reads
    ``min(k, caps[i])``.  Product state ``(s, k)`` has the key
    ``s * width + k``.  Interning is replayed over those keys in the
    builder's LIFO order, so states are numbered as a direct
    exploration numbers them; the buffers are then filled in index
    order, which :meth:`~repro.mdp.MDP.finalize` groups exactly as it
    groups the builder's expansion order.
    """
    from array import array

    import numpy as np

    from ..mdp.graph import concat_ranges
    from ..mdp.model import MDP

    n = len(states)
    top = max(caps[i] for i in observers)
    width = top + 1
    sources, labels = projection._source, projection._label
    ends, targets = projection._end, projection._target
    with span("pta.digital.unfold", projected_states=n) as sp:
        # Per projected state, its successor keys at k = 0 in interning
        # order: its fires' targets, then its tick's, which is one level
        # up below ``top`` and on the same level at ``top``.  A fire's
        # label names its edges, so only a tick reads "tick".
        below = [[] for _ in range(n)]
        at_top = [[] for _ in range(n)]
        lo = 0
        for source, label, hi in zip(sources, labels, ends):
            if label == "tick":
                key = targets[lo] * width
                below[source].append(key + 1)
                at_top[source].append(key)
            else:
                fired = [t * width for t in targets[lo:hi]]
                below[source].extend(fired)
                at_top[source].extend(fired)
            lo = hi

        # A dict, not a flat table of n * width entries: its size
        # follows the reachable product, however large the caps.
        index_of = {0: 0}       # key -> product index
        keys = array("q", [0])  # product index -> key
        stack = [0]
        count = 1
        while stack:
            s, k = divmod(stack.pop(), width)
            for key in below[s] if k < top else at_top[s]:
                key += k
                if key not in index_of:
                    if count >= max_states:
                        raise SearchLimitError(
                            f"digital MDP exceeds {max_states} states",
                            limit=max_states)
                    index_of[key] = count
                    keys.append(key)
                    stack.append(key)
                    count += 1
        del below, at_top, index_of, stack

        keys = np.frombuffer(keys, dtype=np.int64)
        base, level = np.divmod(keys, width)
        # The projection's actions grouped by source state, as buffer
        # indices, and each product action's projected action.
        source = np.asarray(sources, dtype=np.int64)
        per_source = np.bincount(source, minlength=n)
        first = np.cumsum(per_source) - per_source
        per_state = per_source[base]
        actions = np.argsort(source, kind="stable")[
            concat_ranges(first[base], first[base] + per_state)]
        end = np.asarray(ends, dtype=np.int64)
        start = np.concatenate(([0], end[:-1]))[actions]
        end = end[actions]
        lengths = end - start
        # The level each product action's transitions lead to.
        to_level = np.repeat(level, per_state)
        ticks = np.fromiter((label == "tick" for label in labels),
                            dtype=bool, count=len(labels))[actions]
        to_level[ticks] = np.minimum(to_level[ticks] + 1, top)
        transitions = concat_ranges(start, end)
        # Keys are interned in ascending index, not ascending key.
        by_key = np.argsort(keys)
        target_keys = (np.asarray(targets, dtype=np.int64)[transitions]
                       * width + np.repeat(to_level, lengths))
        product = MDP(projection.name)
        product._source = np.repeat(np.arange(count), per_state)
        product._label = [labels[a] for a in actions.tolist()]
        product._reward = np.asarray(projection._reward)[actions]
        product._end = np.cumsum(lengths)
        product._target = by_key[np.searchsorted(keys[by_key], target_keys)]
        product._prob = np.asarray(projection._prob)[transitions]
        product.num_states = count
        del actions, transitions, target_keys, by_key

        # Observer clock i reads min(k, caps[i]) and every other clock
        # its projected value, so each (projected clock vector, level)
        # pair gets one tuple, shared by all its states.
        vectors = {}
        vector = np.fromiter(
            (vectors.setdefault(state.clocks, len(vectors))
             for state in states), dtype=np.int64, count=n)
        pairs, which = np.unique(vector[base] * width + level,
                                 return_inverse=True)
        vectors = list(vectors)
        clocks = []
        for pair in pairs.tolist():
            v, k = divmod(pair, width)
            clocks.append(tuple(
                min(k, caps[i]) if i in observers else value
                for i, value in enumerate(vectors[v])))
        base = base.tolist()
        unfolded = list(map(
            DiscreteState,
            [states[s].locs for s in base],
            [states[s].valuation for s in base],
            [clocks[w] for w in which.tolist()]))
        sp.set("states", count)
    return product, unfolded
