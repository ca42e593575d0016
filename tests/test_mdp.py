"""Tests for the MDP engine: hand-solvable chains, precomputations,
value iteration, rewards, and property-based sanity on random MDPs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModelError, QueryError
from repro.mdp import (
    MDP,
    bounded_reachability,
    expected_total_reward,
    prob0_max,
    prob0_min,
    prob1_max,
    prob1_min,
    reachability_probability,
)


def coin_chain(p=0.5):
    """s0 --p--> goal, --(1-p)--> fail (absorbing)."""
    m = MDP()
    s0 = m.add_state()
    goal = m.add_state(labels=["goal"])
    fail = m.add_state()
    m.add_action(s0, [(p, goal), (1 - p, fail)])
    return m, s0, goal, fail


def retry_chain(p=0.3):
    """Retry until success: s0 --p--> goal, --(1-p)--> s0. Prob 1."""
    m = MDP()
    s0 = m.add_state()
    goal = m.add_state(labels=["goal"])
    m.add_action(s0, [(p, goal), (1 - p, s0)], reward=1.0)
    return m, s0, goal


class TestConstruction:
    def test_probabilities_must_sum_to_one(self):
        m = MDP()
        s = m.add_state()
        with pytest.raises(ModelError):
            m.add_action(s, [(0.5, s)])

    def test_negative_probability_rejected(self):
        m = MDP()
        s = m.add_state()
        t = m.add_state()
        with pytest.raises(ModelError):
            m.add_action(s, [(-0.5, s), (1.5, t)])

    @pytest.mark.parametrize("pairs", [
        [(math.nan, 0)],                 # the Dirac fast path
        [(math.nan, 0), (0.5, 1)],       # the general path
        [(math.inf, 0), (-math.inf, 1)],
    ])
    def test_non_finite_probability_rejected(self, pairs):
        m = MDP()
        s = m.add_state()
        m.add_state()
        with pytest.raises(ModelError, match="sum to nan"):
            m.add_action(s, pairs)
        assert m.actions_of(s) == []

    @pytest.mark.parametrize("reward", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("pairs", [[(1.0, 0)], [(0.5, 0), (0.5, 1)]])
    def test_non_finite_reward_rejected(self, pairs, reward):
        m = MDP()
        s = m.add_state()
        m.add_state()
        with pytest.raises(ModelError, match="non-finite action reward"):
            m.add_action(s, pairs, reward=reward)
        assert m.actions_of(s) == []

    def test_dirac_action_stored_like_a_merged_one(self):
        m = MDP()
        s = m.add_state()
        t = m.add_state()
        m.add_action(s, [(1, t)], label="a", reward=2)
        m.add_action(s, [(0.5, t), (0.5, t)], label="a", reward=2)
        dirac, merged = m.actions_of(s)
        assert dirac == merged == ("a", ((t, 1.0),), 2.0)
        assert [type(x) for x in (dirac[1][0][1], dirac[2])] == \
            [float, float]

    def test_duplicate_targets_merged(self):
        m = MDP()
        s = m.add_state()
        t = m.add_state()
        m.add_action(s, [(0.5, t), (0.5, t)])
        [(label, pairs, reward)] = m.actions_of(s)
        assert pairs == ((t, 1.0),)

    def test_absorbing_states_get_self_loop(self):
        m, s0, goal, fail = coin_chain()
        m.finalize()
        assert m.actions_of(goal) == [(None, ((goal, 1.0),), 0.0)]

    def test_frozen_rejects_changes(self):
        m, s0, goal, fail = coin_chain()
        m.finalize()
        with pytest.raises(ModelError):
            m.add_state()

    @pytest.mark.parametrize("state", [-1, 5, 0.0, "s0"])
    def test_unknown_source_state_rejected(self, state):
        m = MDP()
        s = m.add_state()
        with pytest.raises(ModelError, match="unknown source state"):
            m.add_action(state, [(1.0, s)])
        assert m.actions_of(s) == []

    @pytest.mark.parametrize("target", [-1, 2, 7, 0.5])
    def test_finalize_rejects_unknown_action_target(self, target):
        m = MDP()
        s = m.add_state()
        t = m.add_state()
        m.add_action(s, [(0.5, t), (0.5, target)])
        with pytest.raises(ModelError):
            m.finalize()

    def test_action_target_added_later_is_accepted(self):
        m = MDP()
        s = m.add_state()
        m.add_action(s, [(1.0, 1)])
        t = m.add_state()
        m.finalize()
        assert m.successors(s) == {t}

    def test_labels(self):
        m, s0, goal, fail = coin_chain()
        assert m.states_with("goal") == {goal}
        m.label_state(fail, "fail")
        assert m.states_with("fail") == {fail}


def two_state_chain():
    """State 0 moves to state 1, which is absorbing."""
    m = MDP()
    s0, s1 = m.add_state(), m.add_state()
    m.add_action(s0, [(1.0, s1)])
    return m


TARGET_ENTRY_POINTS = {
    "reachability_probability": reachability_probability,
    "expected_total_reward": expected_total_reward,
    "bounded_reachability": lambda m, t: bounded_reachability(m, t, 3),
    "prob0_max": prob0_max,
    "prob0_min": prob0_min,
    "prob1_max": prob1_max,
    "prob1_min": prob1_min,
}


class TestMalformedTargets:
    """A target outside ``range(num_states)`` is a malformed query: it
    must not raise a stray ``IndexError`` or, for a negative index,
    silently alias the last state."""

    @pytest.mark.parametrize("name", sorted(TARGET_ENTRY_POINTS))
    @pytest.mark.parametrize("targets",
                             [{7}, {-1}, {1, 2}, {0.5}, {True}])
    def test_rejected_with_query_error(self, name, targets):
        with pytest.raises(QueryError):
            TARGET_ENTRY_POINTS[name](two_state_chain(), targets)

    @pytest.mark.parametrize("name", sorted(TARGET_ENTRY_POINTS))
    def test_valid_targets_still_accepted(self, name):
        TARGET_ENTRY_POINTS[name](two_state_chain(), {1, np.int64(1)})

    def test_negative_target_no_longer_aliases_last_state(self):
        m = two_state_chain()
        assert list(reachability_probability(m, {1})) == [1.0, 1.0]
        with pytest.raises(QueryError):
            reachability_probability(m, {-1})


class TestPrecomputation:
    def test_prob0_max(self):
        m, s0, goal, fail = coin_chain()
        m.finalize()
        assert prob0_max(m, {goal}) == {fail}

    def test_prob0_min_with_choice(self):
        # A state with a choice between goal and a safe loop: min prob 0.
        m = MDP()
        s0 = m.add_state()
        goal = m.add_state()
        m.add_action(s0, [(1.0, goal)])
        m.add_action(s0, [(1.0, s0)])
        m.finalize()
        assert s0 in prob0_min(m, {goal})

    def test_prob1_max(self):
        m, s0, goal = retry_chain()
        m.finalize()
        assert s0 in prob1_max(m, {goal})

    def test_prob1_max_excludes_coin(self):
        m, s0, goal, fail = coin_chain()
        m.finalize()
        assert s0 not in prob1_max(m, {goal})

    def test_prob1_min(self):
        # Choice between certain goal and certain avoidance: min prob 0.
        m = MDP()
        s0 = m.add_state()
        goal = m.add_state()
        m.add_action(s0, [(1.0, goal)])
        m.add_action(s0, [(1.0, s0)])
        m.finalize()
        assert s0 not in prob1_min(m, {goal})
        # Without the escape action it is 1.
        m2, s, g = retry_chain()
        m2.finalize()
        assert s in prob1_min(m2, {g})


class TestReachability:
    def test_coin(self):
        m, s0, goal, fail = coin_chain(0.3)
        v = reachability_probability(m, {goal})
        assert v[s0] == pytest.approx(0.3)
        assert v[goal] == 1.0
        assert v[fail] == 0.0

    def test_retry_reaches_almost_surely(self):
        m, s0, goal = retry_chain(0.25)
        v = reachability_probability(m, {goal})
        assert v[s0] == pytest.approx(1.0)

    def test_max_vs_min(self):
        # Two actions: risky (p=0.9 goal) and safe avoidance loop.
        m = MDP()
        s0 = m.add_state()
        goal = m.add_state()
        sink = m.add_state()
        m.add_action(s0, [(0.9, goal), (0.1, sink)])
        m.add_action(s0, [(1.0, sink)])
        vmax = reachability_probability(m, {goal}, maximize=True)
        vmin = reachability_probability(m, {goal}, maximize=False)
        assert vmax[s0] == pytest.approx(0.9)
        assert vmin[s0] == pytest.approx(0.0)

    def test_two_step_geometric(self):
        # s0 -> s1 with 1/2, s1 -> goal with 1/3, else back to s0.
        m = MDP()
        s0, s1 = m.add_state(), m.add_state()
        goal = m.add_state()
        m.add_action(s0, [(0.5, s1), (0.5, s0)])
        m.add_action(s1, [(1 / 3, goal), (2 / 3, s0)])
        v = reachability_probability(m, {goal})
        assert v[s0] == pytest.approx(1.0)

    def test_interval_iteration_matches(self):
        m, s0, goal, fail = coin_chain(0.42)
        v = reachability_probability(m, {goal}, interval=True)
        assert v[s0] == pytest.approx(0.42, abs=1e-9)

    def test_empty_target(self):
        m, s0, goal, fail = coin_chain()
        v = reachability_probability(m, set())
        assert np.all(v == 0.0)


class TestRewards:
    def test_geometric_expected_tries(self):
        # Expected number of tries of a p-coin is 1/p.
        m, s0, goal = retry_chain(0.2)
        v = expected_total_reward(m, {goal})
        assert v[s0] == pytest.approx(5.0)

    def test_infinite_when_target_avoidable(self):
        m, s0, goal, fail = coin_chain(0.5)
        v = expected_total_reward(m, {goal}, maximize=True)
        assert np.isinf(v[s0])

    def test_min_reward_choice(self):
        # Short expensive path (reward 10) vs long cheap path (2 steps of
        # reward 1 with certainty).
        m = MDP()
        s0, mid = m.add_state(), m.add_state()
        goal = m.add_state()
        m.add_action(s0, [(1.0, goal)], reward=10.0)
        m.add_action(s0, [(1.0, mid)], reward=1.0)
        m.add_action(mid, [(1.0, goal)], reward=1.0)
        vmin = expected_total_reward(m, {goal}, maximize=False)
        vmax = expected_total_reward(m, {goal}, maximize=True)
        assert vmin[s0] == pytest.approx(2.0)
        assert vmax[s0] == pytest.approx(10.0)

    def test_min_reward_does_not_hide_in_free_cycle(self):
        # A zero-reward cycle that never reaches the target must not
        # lure the minimiser into reporting 0: a scheduler that enters
        # the cycle has expected reward infinity (it misses the target),
        # so Rmin(s0) is the cost of the honest path, 5 -- and the cycle
        # state itself is infinite.
        m = MDP()
        s0 = m.add_state()
        loop = m.add_state()
        goal = m.add_state()
        m.add_action(s0, [(1.0, goal)], reward=5.0)
        m.add_action(s0, [(1.0, loop)], reward=0.0)
        m.add_action(loop, [(1.0, loop)], reward=0.0)
        v = expected_total_reward(m, {goal}, maximize=False)
        assert v[s0] == pytest.approx(5.0)
        assert np.isinf(v[loop])

    def test_expected_steps_chain(self):
        m = MDP()
        states = [m.add_state() for _ in range(4)]
        goal = m.add_state()
        chain = states + [goal]
        for a, b in zip(chain, chain[1:]):
            m.add_action(a, [(1.0, b)], reward=1.0)
        v = expected_total_reward(m, {goal})
        assert v[states[0]] == pytest.approx(4.0)


class TestBounded:
    def test_chain_needs_enough_steps(self):
        m = MDP()
        s0, s1 = m.add_state(), m.add_state()
        goal = m.add_state()
        m.add_action(s0, [(1.0, s1)])
        m.add_action(s1, [(1.0, goal)])
        assert bounded_reachability(m, {goal}, 1)[s0] == 0.0
        assert bounded_reachability(m, {goal}, 2)[s0] == 1.0

    def test_geometric_partial_sums(self):
        m, s0, goal = retry_chain(0.5)
        v3 = bounded_reachability(m, {goal}, 3)[s0]
        assert v3 == pytest.approx(1 - 0.5 ** 3)

    def test_bounded_below_unbounded(self):
        m, s0, goal = retry_chain(0.3)
        bounded = bounded_reachability(m, {goal}, 5)[s0]
        unbounded = reachability_probability(m, {goal})[s0]
        assert bounded <= unbounded + 1e-12


# -- property-based: random DTMCs ----------------------------------------------

@st.composite
def random_dtmc(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = MDP()
    for _ in range(n):
        m.add_state()
    for s in range(n):
        succs = draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=3))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(succs),
                                max_size=len(succs)))
        total = sum(weights)
        m.add_action(s, [(w / total, t) for w, t in zip(weights, succs)])
    target = draw(st.integers(0, n - 1))
    return m, target


@settings(max_examples=100, deadline=None)
@given(random_dtmc())
def test_probabilities_in_unit_interval(case):
    m, target = case
    v = reachability_probability(m, {target})
    assert np.all(v >= -1e-12) and np.all(v <= 1 + 1e-12)
    assert v[target] == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(random_dtmc())
def test_max_at_least_min(case):
    m, target = case
    vmax = reachability_probability(m, {target}, maximize=True)
    vmin = reachability_probability(m, {target}, maximize=False)
    assert np.all(vmax >= vmin - 1e-9)


@settings(max_examples=60, deadline=None)
@given(random_dtmc(), st.integers(0, 6))
def test_bounded_monotone_in_steps(case, k):
    m, target = case
    a = bounded_reachability(m, {target}, k)
    b = bounded_reachability(m, {target}, k + 1)
    assert np.all(b >= a - 1e-12)


@settings(max_examples=100, deadline=None)
@given(random_dtmc())
def test_precomputation_consistent_with_values(case):
    m, target = case
    v = reachability_probability(m, {target})
    m.finalize()
    for s in prob0_max(m, {target}):
        assert v[s] == 0.0
    for s in prob1_max(m, {target}):
        assert v[s] == pytest.approx(1.0)
