"""MDP analyses: reachability probabilities and expected rewards.

Implements the standard explicit-engine pipeline of a probabilistic
model checker (PRISM's role in the paper's Table I):

1. graph-based precomputation of the states with probability exactly 0
   or 1 (Prob0/Prob1 for both optimisation directions) — each one a
   :func:`repro.mdp.graph.attractor` over the predecessor CSR built at
   :meth:`~repro.mdp.MDP.finalize`, kept as boolean masks (O(transitions)
   per fixpoint instead of repeated full-state rescans);
2. vectorised value iteration over the remaining states, run one SCC at
   a time in reverse topological order
   (:func:`repro.mdp.graph.topological_value_iteration`), optionally as
   *interval iteration* for certified accuracy — with the model's
   maximal end components collapsed first when maximising, so the upper
   sequence actually converges to the true value (Haddad–Monmege;
   without the collapse an end component pins it above, the latent bug
   of the seed engine preserved in :mod:`repro.mdp.reference`);
3. expected total reward until a target is reached, with the usual
   infinity semantics when the target may be missed;
4. step-bounded reachability.

The pre-core implementations live verbatim in
:mod:`repro.mdp.reference` as the differential-test oracle.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.errors import AnalysisError, QueryError
from ..obs import incr, log, observe, span
from .graph import (
    attractor,
    maximal_end_components,
    topological_value_iteration,
)
from .model import MDP


# -- graph precomputations ------------------------------------------------------

def _target_mask(mdp, targets):
    """Finalize ``mdp`` and return ``targets`` as a mask over its states.

    Raises :class:`QueryError` for a target that is not a state index
    in ``range(mdp.num_states)``; a ``bool`` is not an index, although
    Python counts it as an ``int``.
    """
    mdp.finalize()
    target_set = set(targets)
    states = range(mdp.num_states)
    for t in target_set:
        if (not isinstance(t, (int, np.integer)) or isinstance(t, bool)
                or t not in states):
            raise QueryError(
                f"target {t!r} is not a state of {mdp.name} "
                f"({mdp.num_states} states)")
    mask = np.zeros(mdp.num_states, dtype=bool)
    mask[list(target_set)] = True
    return mask


def _states(mask):
    return set(np.flatnonzero(mask).tolist())


def _can_reach(mdp, target):
    """States with a path to the ``target`` mask: the complement of
    :func:`prob0_max`."""
    return attractor(mdp.graph, target, 1)[0]


def _prob0_min(mdp, target):
    """The :func:`prob0_min` mask: the complement of the states that
    join once every one of their actions has a successor that joined."""
    g = mdp.graph
    return ~attractor(g, target, np.diff(g.state_offsets_all),
                      by_action=True)[0]


def _prob1_max(mdp, target, reach):
    """The :func:`prob1_max` mask from ``reach``, the
    :func:`_can_reach` mask.

    With X = all states every action is eligible, so the first outer
    round of the fixpoint is exactly :func:`_can_reach`; the iteration
    starts from its result instead.
    """
    g = mdp.graph
    x = reach
    while True:
        # An action is eligible while its whole support stays in X.
        leaves = np.zeros(mdp.num_actions, dtype=bool)
        leaves[g.trans_action[~x[mdp.cols]]] = True
        y = attractor(g, target, 1, eligible=~leaves[g.trans_action])[0]
        # y is a subset of x by monotonicity, so counts decide equality.
        if np.count_nonzero(y) == np.count_nonzero(x):
            return y
        x = y


def _prob1_min(mdp, target, avoid):
    """The :func:`prob1_min` mask given ``avoid``, the
    :func:`_prob0_min` mask: the complement of the states with a
    transition into the attractor of ``avoid`` (the adversary, who
    minimises reachability, can steer towards avoidance), where
    targets never join."""
    need = np.where(target, len(mdp.cols) + 1, 1)
    return ~attractor(mdp.graph, avoid, need)[0]


def prob0_max(mdp, targets):
    """States where the *maximal* reachability probability is 0:
    no path reaches the target at all."""
    return _states(~_can_reach(mdp, _target_mask(mdp, targets)))


def prob0_min(mdp, targets):
    """States where the *minimal* reachability probability is 0: some
    scheduler avoids the target forever.

    Greatest fixpoint U = non-target states with some action whose
    whole support stays in U, computed as the complement of a counting
    attractor: a state is removed (cannot avoid) once every one of its
    actions has a successor already removed.
    """
    return _states(_prob0_min(mdp, _target_mask(mdp, targets)))


def prob1_max(mdp, targets):
    """States where the maximal reachability probability is 1 (Prob1E).

    de Alfaro's nested fixpoint nu X. mu Y, with the inner least
    fixpoint as an attractor over *eligible* actions (support inside X)
    and eligibility recomputed vectorised per outer round.
    """
    target = _target_mask(mdp, targets)
    return _states(_prob1_max(mdp, target, _can_reach(mdp, target)))


def prob1_min(mdp, targets):
    """States where the minimal reachability probability is 1 (Prob1A):
    complement of the states from which some scheduler reaches, with
    positive probability, the region where the target can be avoided
    surely (``prob0_min``)."""
    target = _target_mask(mdp, targets)
    return _states(_prob1_min(mdp, target, _prob0_min(mdp, target)))


def _precompute(mdp, target, maximize, rewards=False):
    """The Prob0 and Prob1 masks of one query, as ``(zeros, ones)``,
    computed in one ``mdp.prob01`` span.

    A reachability query takes the sets of its own direction.  An
    expected reward takes those of the other one: its maximiser makes
    the reward infinite wherever some scheduler can miss the target,
    and its minimiser wherever every scheduler can.
    """
    start = time.perf_counter()
    with span("mdp.prob01", maximize=maximize):
        if maximize != rewards:
            reach = _can_reach(mdp, target)
            zeros, ones = ~reach, _prob1_max(mdp, target, reach)
        else:
            zeros = _prob0_min(mdp, target)
            ones = _prob1_min(mdp, target, zeros)
    observe("mdp.prob01_ms", (time.perf_counter() - start) * 1000.0)
    return zeros, ones


# -- value iteration -------------------------------------------------------------

def _interval_upper_max(mdp, values, frozen, epsilon):
    """Sound upper sequence for maximal reachability.

    Collapses the maximal end components among the non-frozen states
    into single quotient states (dropping MEC-internal actions), where
    iteration from above has a unique fixpoint, then maps the converged
    upper bounds back.  Without the collapse a MEC pins the upper bound
    at its starting value (1) regardless of the true probability.
    """
    n = mdp.num_states
    g = mdp.graph
    mec_of, mec_count = maximal_end_components(mdp, restrict=~frozen)
    # Quotient ids in state order: every non-MEC state keeps its own,
    # each MEC becomes one fresh state at its first member.
    members = np.flatnonzero(mec_of >= 0)
    head = np.full(mec_count, n, dtype=np.int64)
    np.minimum.at(head, mec_of[members], members)
    fresh = mec_of < 0
    fresh[head] = True
    q_of = np.cumsum(fresh) - 1
    q_of[members] = q_of[head[mec_of[members]]]
    nq = int(fresh.sum())
    # Keep the actions of live states that leave their MEC (an internal
    # one would be a quotient self-loop); frozen quotient states stay
    # absorbing.
    cols = mdp.cols
    owner = g.action_state
    internal = np.logical_and.reduceat(
        mec_of[cols] == mec_of[g.trans_source], mdp.action_offsets)
    keep = ~frozen[owner] & ~((mec_of[owner] >= 0) & internal)
    trans = keep[g.trans_action]
    action = g.trans_action[trans]
    targets = q_of[cols[trans]]
    probs = mdp.probs[trans]
    # Targets of one action that fall into one MEC merge into a single
    # transition whose probability sums theirs in order, as add_action
    # would merge them.
    key = action * nq + targets
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)
    repeat[1:] = key[order[1:]] == key[order[:-1]]
    if repeat.any():
        group = np.empty(len(key), dtype=np.int64)
        group[order] = np.cumsum(~repeat) - 1
        merged = np.zeros(len(order) - int(repeat.sum()))
        np.add.at(merged, group, probs)
        first = np.zeros(len(key), dtype=bool)
        first[order[~repeat]] = True
        action, targets = action[first], targets[first]
        probs = merged[group[first]]
    quotient = MDP(f"{mdp.name}/mec")
    quotient.num_states = nq
    quotient._source = q_of[owner[keep]]
    quotient._label = [None] * int(keep.sum())
    quotient._reward = np.zeros(len(quotient._label))
    quotient._end = np.cumsum(
        np.bincount(action, minlength=len(keep))[keep])
    quotient._target, quotient._prob = targets, probs
    quotient.finalize()
    upper_q = np.ones(nq)
    frozen_q = np.zeros(nq, dtype=bool)
    upper_q[q_of[frozen]] = values[frozen]
    frozen_q[q_of[frozen]] = True
    iterations = topological_value_iteration(
        quotient, upper_q, frozen_q, maximize=True, epsilon=epsilon)
    upper = values.copy()
    live = ~frozen
    upper[live] = upper_q[q_of[live]]
    return upper, iterations


def reachability_probability(mdp, targets, maximize=True, epsilon=1e-12,
                             interval=False):
    """Vector of reachability probabilities for every state.

    With ``interval=True``, runs interval iteration (a second sequence
    converging from above — over the MEC quotient when maximising, see
    :func:`_interval_upper_max`) and returns the midpoint, guaranteeing
    the result is within ``epsilon`` of the true value.
    """
    target = _target_mask(mdp, targets)
    if not target.any():
        return np.zeros(mdp.num_states)
    zeros, ones = _precompute(mdp, target, maximize)
    values = ones.astype(np.float64)
    frozen = zeros | ones | target
    iterations = topological_value_iteration(
        mdp, values, frozen, maximize, epsilon=epsilon)
    if not interval:
        incr("mdp.vi_iterations", iterations)
        log("mdp.vi.done", iterations=iterations, states=mdp.num_states,
            maximize=maximize)
        return values
    if maximize:
        upper, upper_iterations = _interval_upper_max(
            mdp, values, frozen, epsilon)
    else:
        # Minimal reachability needs no collapse: with the prob0_min
        # region pinned at 0 the Bellman operator has a unique fixpoint
        # on the rest, so the from-above sequence converges to it.
        upper = np.where(zeros, 0.0, 1.0)
        upper_iterations = topological_value_iteration(
            mdp, upper, frozen, maximize, epsilon=epsilon)
    incr("mdp.vi_iterations", iterations + upper_iterations)
    log("mdp.vi.done", iterations=iterations + upper_iterations,
        states=mdp.num_states, maximize=maximize)
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
    target = _target_mask(mdp, targets)
    _zeros, certain = _precompute(mdp, target, maximize, rewards=True)
    infinite = ~(certain | target)
    frozen = target | infinite
    # Infinite states are frozen at a huge finite sentinel (np.inf * 0
    # would poison the products with nan) so they never look attractive
    # when minimising; restored to inf afterwards.
    sentinel = 1e18
    work = np.where(infinite, sentinel, 0.0)
    if not maximize:
        # Minimising with zero-reward cycles: the least fixpoint can be
        # too low (a scheduler could "hide" in a free cycle), so iterate
        # from above, which converges to the optimal proper policy.
        work = np.where(frozen, work, sentinel / 4)
        work[target] = 0.0
    iterations = topological_value_iteration(
        mdp, work, frozen, maximize, rewards=mdp.action_rewards,
        epsilon=epsilon, max_iterations=max_iterations)
    incr("mdp.vi_iterations", iterations)
    return np.where(work >= sentinel / 2, np.inf, work)


def bounded_reachability(mdp, targets, steps, maximize=True):
    """Probability of reaching the target within ``steps`` actions."""
    frozen = _target_mask(mdp, targets)
    values = frozen.astype(np.float64)
    reduce_actions = np.maximum if maximize else np.minimum
    for _ in range(steps):
        contrib = mdp.probs * values[mdp.cols]
        action_values = np.add.reduceat(contrib, mdp.action_offsets)
        new_values = reduce_actions.reduceat(
            action_values, mdp.state_offsets)
        new_values[frozen] = values[frozen]
        values = new_values
    return values
