"""The pre-core MDP engine, kept verbatim as a test oracle.

Snapshot of :mod:`repro.mdp.analysis` and the digital-clocks builder
(:func:`repro.pta.digital.build_digital_mdp`) exactly as they stood
before the sparse graph core (``mdp/graph.py``) replaced them: set-based
Prob0/Prob1 fixpoints, global (non-topological) value iteration, the
naive interval iteration whose upper sequence is *unsound* in the
presence of end components, and the per-state re-derivation of firing
data in the builder.  Not exported from :mod:`repro.mdp` — it exists
for:

* the differential suites (``tests/test_mdp_core.py``), which assert
  the new core reproduces these verdicts and value vectors within
  1e-9 on BRP, firewire and hypothesis-random MDPs (*except* for the
  end-component interval case, where this engine is the documented
  wrong answer the new core must beat);
* ``bench_engines.py --mdp``, which measures the speedup of the new
  pipeline over this one.

Do not "fix" or optimise any algorithm here; that would destroy its
value as an oracle.  Only the data access is tuned: each fixpoint reads
the states' actions once per call (``_actions``) rather than once per
state and round.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..core.errors import AnalysisError, ModelError, SearchLimitError


# -- graph precomputations ------------------------------------------------------

def _actions(mdp):
    """state -> its actions, as :meth:`~repro.mdp.MDP.actions_of` lists
    them; read once per call, not once per state and fixpoint round."""
    return [mdp.actions_of(s) for s in range(mdp.num_states)]


def _predecessors_map(mdp):
    """state -> set of predecessor states (graph view)."""
    preds = [set() for _ in range(mdp.num_states)]
    for s, actions in enumerate(_actions(mdp)):
        for _label, pairs, _reward in actions:
            for t, _p in pairs:
                preds[t].add(s)
    return preds


def prob0_max(mdp, targets):
    """States where the *maximal* reachability probability is 0:
    no path reaches the target at all."""
    can_reach = set(targets)
    preds = _predecessors_map(mdp)
    stack = list(targets)
    while stack:
        t = stack.pop()
        for s in preds[t]:
            if s not in can_reach:
                can_reach.add(s)
                stack.append(s)
    return set(range(mdp.num_states)) - can_reach


def prob0_min(mdp, targets):
    """States where the *minimal* reachability probability is 0: some
    scheduler avoids the target forever.

    Greatest fixpoint: U = non-target states with some action whose
    whole support stays in U.
    """
    targets = set(targets)
    actions = _actions(mdp)
    u = set(range(mdp.num_states)) - targets
    changed = True
    while changed:
        changed = False
        for s in list(u):
            ok = False
            for _label, pairs, _r in actions[s]:
                if all(t in u for t, _p in pairs):
                    ok = True
                    break
            if not ok:
                u.discard(s)
                changed = True
    return u


def prob1_max(mdp, targets):
    """States where the maximal reachability probability is 1 (Prob1E).

    de Alfaro's nested fixpoint: nu X. mu Y. (s in T) or exists action
    with support inside X and some successor in Y.
    """
    targets = set(targets)
    actions = _actions(mdp)
    x = set(range(mdp.num_states))
    while True:
        y = set(targets)
        grew = True
        while grew:
            grew = False
            for s in range(mdp.num_states):
                if s in y:
                    continue
                for _label, pairs, _r in actions[s]:
                    support = [t for t, _p in pairs]
                    if all(t in x for t in support) and any(
                            t in y for t in support):
                        y.add(s)
                        grew = True
                        break
        if y == x:
            return x
        x = y


def prob1_min(mdp, targets):
    """States where the minimal reachability probability is 1 (Prob1A):
    complement of prob0_min over the complement construction.

    A state has min probability 1 iff no scheduler can make the
    probability of *avoiding* the target positive, which is the
    complement of ``prob0-style`` escape analysis: we compute the states
    from which some scheduler reaches, with positive probability, the
    region where the target can be avoided surely.
    """
    targets = set(targets)
    avoid_surely = prob0_min(mdp, targets)  # min prob 0: avoidable
    # States with min prob < 1: some scheduler reaches avoid_surely with
    # positive probability (standard Prob1A complement).
    bad = set(avoid_surely)
    actions = _actions(mdp)
    preds = _predecessors_map(mdp)
    stack = list(bad)
    while stack:
        t = stack.pop()
        for s in preds[t]:
            if s in bad or s in targets:
                continue
            # some action has a successor in bad -> the adversary (who
            # minimises reachability) can steer towards avoidance.
            for _label, pairs, _r in actions[s]:
                if any(u in bad for u, _p in pairs):
                    bad.add(s)
                    stack.append(s)
                    break
    return set(range(mdp.num_states)) - bad


# -- value iteration -------------------------------------------------------------

def _iterate(mdp, values, frozen_mask, maximize, rewards=None,
             epsilon=1e-12, max_iterations=1000000):
    """In-place Jacobi value iteration on the frozen sparse form."""
    reduce_actions = np.maximum if maximize else np.minimum
    probs, cols = mdp.probs, mdp.cols
    action_offsets = mdp.action_offsets
    state_offsets = mdp.state_offsets
    action_rewards = rewards if rewards is not None else None
    for iteration in range(max_iterations):
        contrib = probs * values[cols]
        action_values = np.add.reduceat(contrib, action_offsets)
        # reduceat misbehaves on empty segments, but finalize() ensures
        # every action has at least one transition.
        if action_rewards is not None:
            action_values = action_values + action_rewards
        new_values = reduce_actions.reduceat(action_values, state_offsets)
        new_values[frozen_mask] = values[frozen_mask]
        delta = np.max(np.abs(new_values - values))
        values[:] = new_values
        if delta <= epsilon:
            return iteration + 1
    raise AnalysisError(
        f"value iteration did not converge in {max_iterations} iterations")


def reachability_probability(mdp, targets, maximize=True, epsilon=1e-12,
                             interval=False):
    """Vector of reachability probabilities for every state.

    With ``interval=True``, runs interval iteration (a second sequence
    converging from above) and returns the midpoint — *without* the
    end-component collapse, so the upper sequence can get stuck above
    the true value (the latent bug the new core fixes).
    """
    mdp.finalize()
    targets = set(targets)
    if not targets:
        return np.zeros(mdp.num_states)
    zeros = (prob0_max(mdp, targets) if maximize
             else prob0_min(mdp, targets))
    ones = (prob1_max(mdp, targets) if maximize
            else prob1_min(mdp, targets))
    values = np.zeros(mdp.num_states)
    for s in ones:
        values[s] = 1.0
    frozen = np.zeros(mdp.num_states, dtype=bool)
    for s in zeros | ones | targets:
        frozen[s] = True
    _iterate(mdp, values, frozen, maximize, epsilon=epsilon)
    if not interval:
        return values
    upper = np.ones(mdp.num_states)
    for s in zeros:
        upper[s] = 0.0
    _iterate(mdp, upper, frozen, maximize, epsilon=epsilon)
    if np.any(upper + 1e-6 < values):
        raise AnalysisError("interval iteration bounds crossed")
    return (values + upper) / 2.0


def expected_total_reward(mdp, targets, maximize=True, epsilon=1e-12,
                          max_iterations=1000000):
    """Expected reward accumulated until first reaching the target.

    Uses the action rewards attached to the MDP.  States from which the
    target might never be reached (under the optimising scheduler when
    maximising, under *some* scheduler when that scheduler is also free
    to avoid the target) have infinite expected reward, following the
    standard model-checking semantics.
    """
    mdp.finalize()
    targets = set(targets)
    certain = (prob1_min(mdp, targets) if maximize
               else prob1_max(mdp, targets))
    values = np.zeros(mdp.num_states)
    infinite = np.zeros(mdp.num_states, dtype=bool)
    for s in range(mdp.num_states):
        if s not in certain and s not in targets:
            infinite[s] = True
    frozen = np.zeros(mdp.num_states, dtype=bool)
    for s in targets:
        frozen[s] = True
    # Run VI over finite states only: treat infinite states as frozen at
    # a huge sentinel so they never look attractive when minimising.
    values[infinite] = np.inf
    frozen |= infinite
    # np.inf * 0 = nan; replace inf contributions manually by masking:
    # we instead run on a copy where inf is a large finite sentinel and
    # restore afterwards.
    sentinel = 1e18
    work = np.where(np.isinf(values), sentinel, values)
    if not maximize:
        # Minimising with zero-reward cycles: the least fixpoint can be
        # too low (a scheduler could "hide" in a free cycle), so iterate
        # from above, which converges to the optimal proper policy.
        work = np.where(frozen, work, sentinel / 4)
        work[list(targets)] = 0.0
    _iterate(mdp, work, frozen, maximize,
             rewards=mdp.action_rewards, epsilon=epsilon,
             max_iterations=max_iterations)
    result = np.where(work >= sentinel / 2, np.inf, work)
    return result


def bounded_reachability(mdp, targets, steps, maximize=True):
    """Probability of reaching the target within ``steps`` actions."""
    mdp.finalize()
    targets = set(targets)
    values = np.zeros(mdp.num_states)
    frozen = np.zeros(mdp.num_states, dtype=bool)
    for s in targets:
        values[s] = 1.0
        frozen[s] = True
    reduce_actions = np.maximum if maximize else np.minimum
    for _ in range(steps):
        contrib = mdp.probs * values[mdp.cols]
        action_values = np.add.reduceat(contrib, mdp.action_offsets)
        new_values = reduce_actions.reduceat(
            action_values, mdp.state_offsets)
        new_values[frozen] = values[frozen]
        values = new_values
    return values


# -- the pre-memoization digital-clocks builder ----------------------------------

def _invariants_hold(network, locs, clocks):
    for process, loc_index in zip(network.processes, locs):
        for atom in process.location(loc_index).invariant:
            if not atom.holds(clocks[process.resolve_clock(atom.clock)]):
                return False
    return True


def _fire_branches(network, state, transition):
    """All probabilistic outcomes of firing ``transition``.

    Returns a list of ``(probability, DiscreteState)``; the joint
    distribution is the product over the participants' branch choices.
    A *Dirac* step into an invariant-violating state is simply disabled
    (the empty list — UPPAAL's semantics for plain edges); a genuinely
    probabilistic step with only *some* violating branches leaves the
    distribution undefined and is a model error.
    """
    from ..ta.syntax import edge_branches
    from ..ta.discrete import DiscreteState

    combos = list(product(*[edge_branches(edge)
                            for _process, edge in
                            transition.participants]))
    outcomes = []
    for combo in combos:
        probability = 1.0
        locs = list(state.locs)
        env = state.valuation.env()
        clocks = list(state.clocks)
        for (process, _edge), branch in zip(transition.participants, combo):
            probability *= branch.probability
            locs[process.index] = process.location_index[branch.target]
            for update in branch.update:
                if callable(update):
                    update(env)
                else:
                    update.apply(env)
            for clock, value in branch.resets:
                clocks[process.resolve_clock(clock)] = value
        if probability <= 0.0:
            continue
        new_state = DiscreteState(
            tuple(locs), env.commit(), tuple(clocks))
        if not _invariants_hold(network, new_state.locs, new_state.clocks):
            if len(combos) == 1:
                return []  # Dirac step: the edge is simply disabled
            raise ModelError(
                "probabilistic branch violates the target invariant "
                f"(transition {transition.describe()})")
        outcomes.append((probability, new_state))
    return outcomes


def reference_build_digital_mdp(network, extra_constants=None,
                                time_reward=True, max_states=2000000):
    """The seed digital-clocks builder, including its intern off-by-one
    (`SearchLimitError` raised only after the state past ``max_states``
    was added and queued)."""
    from ..pta.digital import DigitalMDP
    from ..ta.discrete import DiscreteState, check_closed_diagonal_free
    from ..ta.transitions import (
        delay_forbidden,
        discrete_transitions,
        has_urgent_sync,
    )
    from .model import MDP

    network.freeze()
    check_closed_diagonal_free(network, "digital-clocks semantics")
    caps = tuple(c + 1 for c in network.max_constants(extra_constants))

    mdp = MDP(network.name)
    initial = DiscreteState(
        network.initial_locations(), network.initial_valuation(),
        (0,) * network.dbm_size)
    if not _invariants_hold(network, initial.locs, initial.clocks):
        raise ModelError("initial state violates invariants")

    index_of = {initial.key(): 0}
    states = [initial]
    mdp.add_state()
    queue = [0]

    def intern(state):
        key = state.key()
        idx = index_of.get(key)
        if idx is None:
            idx = mdp.add_state()
            index_of[key] = idx
            states.append(state)
            queue.append(idx)
            if idx >= max_states:
                raise SearchLimitError(
                    f"digital MDP exceeds {max_states} states",
                    limit=max_states)
        return idx

    while queue:
        current = queue.pop()
        state = states[current]
        # Discrete actions.
        for transition in discrete_transitions(
                network, state.locs, state.valuation):
            if not all(
                    atom.holds(state.clocks[process.resolve_clock(
                        atom.clock)])
                    for process, atom in transition.clock_guard_atoms()):
                continue
            outcomes = _fire_branches(network, state, transition)
            if not outcomes:
                continue
            pairs = [(p, intern(s)) for p, s in outcomes]
            mdp.add_action(current, pairs,
                           label=transition.describe(), reward=0.0)
        # Tick.
        if not delay_forbidden(network, state.locs) and \
                not has_urgent_sync(network, state.locs, state.valuation):
            ticked = (0,) + tuple(
                min(v + 1, cap)
                for v, cap in zip(state.clocks[1:], caps[1:]))
            if _invariants_hold(network, state.locs, ticked):
                succ = DiscreteState(state.locs, state.valuation, ticked)
                mdp.add_action(current, [(1.0, intern(succ))],
                               label="tick",
                               reward=1.0 if time_reward else 0.0)
    return DigitalMDP(mdp, states, network)
