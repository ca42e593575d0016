"""Differential suite for the sparse MDP numerical core.

Gates the rewrite of ``mdp/analysis.py`` (counting attractors,
SCC-topological value iteration, MEC-collapsed interval iteration) and
the memoised digital-clocks builder against the seed implementations
preserved verbatim in ``repro.mdp.reference``:

* hypothesis-random MDPs (with end components and zero-reward cycles)
  must agree on all four Prob0/Prob1 sets exactly and on every value
  vector within 1e-9;
* the BRP and firewire digital MDPs must come out structurally
  identical from both builders and solve to the same values;
* on a hand-built end-component model the *reference* interval
  iteration returns a provably wrong midpoint (its upper sequence is
  pinned by the MEC) while the new core returns the true value — the
  latent correctness bug this PR fixes.
"""

import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SearchLimitError
from repro.mdp import analysis as core
from repro.mdp import reference as ref
from repro.mdp.graph import (
    concat_ranges,
    level_plan,
    tarjan_scc,
    topological_value_iteration,
)
from repro.mdp.model import MDP
from repro.mdp.reference import reference_build_digital_mdp
from repro.models import brp, firewire
from repro.obs import collecting, recording, tracing
from repro.obs.flight import logical_series
from repro.pta import build_digital_mdp
from repro.ta import discrete as ta_discrete

TOL = 1e-9


@st.composite
def random_mdps(draw):
    """A small random MDP plus a target set.

    States may end up with no explicit action (finalize then adds a
    self-loop — an end component), supports may loop back (cycles), and
    rewards are zero-heavy so minimising hits the zero-reward-cycle
    path.
    """
    n = draw(st.integers(2, 7))
    mdp = MDP("hyp")
    for _ in range(n):
        mdp.add_state()
    for state in range(n):
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(1, min(3, n)))
            succs = draw(st.lists(st.integers(0, n - 1),
                                  min_size=k, max_size=k, unique=True))
            weights = [draw(st.integers(1, 5)) for _ in succs]
            total = sum(weights)
            mdp.add_action(
                state, [(w / total, t) for w, t in zip(weights, succs)],
                reward=draw(st.sampled_from([0.0, 0.0, 1.0, 2.5])))
    targets = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    return mdp, targets


@st.composite
def layered_mdps(draw):
    """A random MDP of 10-60 states built level by level, plus a target
    set.

    Level 0 holds absorbing states.  Every higher level holds one cyclic
    component of 2-3 states next to trivial states, and every state
    there has a successor one level down, so its SCC's height is its
    level: value iteration meets trivial states and a cyclic component
    side by side.  Targets and the Prob0/Prob1 states are frozen.
    """
    mdp = MDP("layered")
    levels = [[mdp.add_state() for _ in range(draw(st.integers(2, 10)))]]
    for _ in range(draw(st.integers(2, 5))):
        levels.append([mdp.add_state()
                       for _ in range(draw(st.integers(4, 10)))])
    reward = st.sampled_from([0.0, 0.0, 1.0, 2.5])
    for k in range(1, len(levels)):
        below = [s for level in levels[:k] for s in level]
        cycle_len = draw(st.integers(2, 3))
        cycle, trivial = levels[k][:cycle_len], levels[k][cycle_len:]
        for i, state in enumerate(cycle):
            step = draw(st.integers(1, 4)) / 5
            exit_to = draw(st.sampled_from(levels[k - 1]))
            mdp.add_action(state, [(step, cycle[(i + 1) % cycle_len]),
                                   (1 - step, exit_to)],
                           reward=draw(reward))
        for state in trivial:
            for a in range(draw(st.integers(1, 2))):
                succs = draw(st.lists(st.sampled_from(below), min_size=1,
                                      max_size=4, unique=True))
                if a == 0:
                    succs[0] = draw(st.sampled_from(levels[k - 1]))
                    succs = list(dict.fromkeys(succs))
                weights = [draw(st.integers(1, 5)) for _ in succs]
                total = sum(weights)
                mdp.add_action(
                    state, [(w / total, t) for w, t in zip(weights, succs)],
                    reward=draw(reward))
    targets = draw(st.sets(st.integers(0, mdp.num_states - 1),
                           min_size=1, max_size=4))
    return mdp, targets


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_mdps(), layered_mdps()))
def test_prob01_sets_match_reference(case):
    mdp, targets = case
    mdp.finalize()
    for new_fn, ref_fn in ((core.prob0_max, ref.prob0_max),
                           (core.prob0_min, ref.prob0_min),
                           (core.prob1_max, ref.prob1_max),
                           (core.prob1_min, ref.prob1_min)):
        states = new_fn(mdp, targets)
        assert states == ref_fn(mdp, targets), new_fn.__name__
        assert all(type(s) is int for s in states), new_fn.__name__


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_mdps(), layered_mdps()), st.booleans())
def test_values_match_reference(case, maximize):
    mdp, targets = case
    truth = ref.reachability_probability(mdp, targets, maximize=maximize)
    values = core.reachability_probability(mdp, targets, maximize=maximize)
    assert np.max(np.abs(values - truth)) <= TOL
    # Interval iteration is compared against the reference *plain* VI
    # (the ground truth): the reference interval midpoint is exactly
    # what is wrong in the presence of end components.
    midpoint = core.reachability_probability(
        mdp, targets, maximize=maximize, interval=True)
    assert np.max(np.abs(midpoint - truth)) <= TOL

    new_r = core.expected_total_reward(mdp, targets, maximize=maximize)
    ref_r = ref.expected_total_reward(mdp, targets, maximize=maximize)
    new_inf, ref_inf = np.isinf(new_r), np.isinf(ref_r)
    assert np.array_equal(new_inf, ref_inf)
    assert np.all(np.abs(new_r[~new_inf] - ref_r[~ref_inf]) <= TOL)

    for steps in (0, 3, 9):
        assert np.max(np.abs(
            core.bounded_reachability(mdp, targets, steps, maximize)
            - ref.bounded_reachability(mdp, targets, steps, maximize))) \
            <= TOL


@st.composite
def random_graphs(draw):
    """A random MDP as a bare graph: up to 12 states, each with 0-3
    actions of 1-3 successors.  Cycles, self-loops, sinks (a state
    without actions gets finalize's self-loop), isolated states and the
    empty MDP all occur."""
    n = draw(st.integers(0, 12))
    mdp = MDP("graph")
    for _ in range(n):
        mdp.add_state()
    for state in range(n):
        for support in draw(st.lists(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                         unique=True), max_size=3)):
            mdp.add_action(state, [(1 / len(support), t) for t in support])
    return mdp.finalize()


def condensation_heights(scc_of, count, src, dst):
    """Height of every SCC in the condensation DAG, peeled bottom up:
    the algorithm ``LevelPlan`` used before it took its heights from
    the sink peel."""
    src, dst = scc_of[src], scc_of[dst]
    cross = src != dst
    src, dst = src[cross], dst[cross]
    remaining = np.bincount(src, minlength=count)
    pred = src[np.argsort(dst, kind="stable")]
    pred_offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(dst, minlength=count))))
    height = np.empty(count, dtype=np.int32)
    level = np.flatnonzero(remaining == 0)
    h = 0
    while level.size:
        height[level] = h
        preds, counts = np.unique(
            pred[concat_ranges(pred_offsets[level], pred_offsets[level + 1])],
            return_counts=True)
        remaining[preds] -= counts
        level = preds[remaining[preds] == 0]
        h += 1
    return height


@settings(max_examples=300, deadline=None)
@given(random_graphs())
def test_trimmed_scc_decomposition(mdp):
    """The sink peel plus Tarjan on the residue gives plain Tarjan's
    partition, reverse-topological ids with the peeled singletons
    first, and the condensation heights the plan's levels need."""
    g = mdp.graph
    n = mdp.num_states
    plain, count = tarjan_scc(n, g.state_trans_offsets.tolist(),
                              mdp.cols.tolist())

    def partition(ids):
        blocks = {}
        for state, c in enumerate(ids):
            blocks.setdefault(int(c), set()).add(state)
        return sorted(map(sorted, blocks.values()))

    assert g.scc_count == count
    assert partition(g.scc_of) == partition(plain)
    assert sorted(set(g.scc_of.tolist())) == list(range(count))
    assert np.all(g.scc_of[mdp.cols] <= g.scc_of[g.trans_source])
    peeled = len(g.peel_height)
    assert np.all(np.bincount(g.scc_of, minlength=count)[:peeled] == 1)
    if n == 0:
        return
    plain = np.asarray(plain)
    height = condensation_heights(plain, count, g.trans_source, mdp.cols)
    state_height = height[plain]
    peeled_states = np.flatnonzero(g.scc_of < peeled)
    assert np.array_equal(g.peel_height[g.scc_of[peeled_states]],
                          state_height[peeled_states])
    plan = level_plan(mdp)
    assert len(plan.levels) == height.max() + 1
    seen = []
    for k, level in enumerate(plan.levels):
        trivial, cyclic = level[0], level[-1]
        for states in [trivial, *cyclic]:
            assert np.all(state_height[states] == k)
            seen.extend(states.tolist())
    assert sorted(seen) == list(range(n))


def _assert_same_arrays(mdp_a, mdp_b):
    """Two finalized MDPs hold the same sparse arrays, bit for bit, and
    the same action labels."""
    assert mdp_a.num_states == mdp_b.num_states
    for name in ("cols", "probs", "action_offsets", "action_rewards",
                 "state_offsets"):
        a, b = getattr(mdp_a, name), getattr(mdp_b, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert mdp_a.action_labels == mdp_b.action_labels


@st.composite
def action_tables(draw):
    """Up to 12 states, each with 0-4 actions ``(label, pairs,
    reward)`` whose pairs may name a target twice or carry probability
    0, plus an interleaved order to add them in: a shuffled sequence of
    source states, one entry per action, in which each state's own
    actions keep their order."""
    n = draw(st.integers(1, 12))
    table = []
    for _ in range(n):
        actions = []
        for _ in range(draw(st.integers(0, 4))):
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=4))
            weights = [draw(st.integers(0, 3)) for _ in targets]
            weights[0] = weights[0] or 1
            total = sum(weights)
            actions.append((draw(st.sampled_from([None, "a", "tick"])),
                            [(w / total, t) for w, t in zip(weights, targets)],
                            draw(st.sampled_from([0, 0.0, 1, 2.5]))))
        table.append(actions)
    sources = [s for s, actions in enumerate(table) for _ in actions]
    return table, draw(st.permutations(sources))


def _build(table, sources):
    mdp = MDP("table")
    for _ in table:
        mdp.add_state()
    taken = [0] * len(table)
    for s in sources:
        label, pairs, reward = table[s][taken[s]]
        taken[s] += 1
        mdp.add_action(s, pairs, label=label, reward=reward)
    return mdp


def _assert_python_typed(actions):
    for _label, pairs, reward in actions:
        assert type(reward) is float
        for target, probability in pairs:
            assert type(target) is int and type(probability) is float


@settings(max_examples=200, deadline=None)
@given(action_tables())
def test_finalize_groups_actions_added_in_any_state_order(case):
    """Actions added in a shuffled state order finalize to the arrays
    of the same actions added in index order, and ``actions_of`` shows
    the merged, zero-free pairs as Python ints and floats before and
    after finalize (an action-less state gains its self-loop)."""
    table, shuffled = case
    expected = [
        [(label,
          tuple({t: 0.0 + sum(q for q, u in pairs[:i + 1] if u == t)
                 for i, (p, t) in enumerate(pairs) if p > 0}.items()),
          float(reward))
         for label, pairs, reward in actions]
        for actions in table]
    mdp = _build(table, shuffled)
    in_order = _build(table, sorted(shuffled))
    for state, actions in enumerate(expected):
        assert mdp.actions_of(state) == actions
        _assert_python_typed(mdp.actions_of(state))
    _assert_same_arrays(mdp.finalize(), in_order.finalize())
    for state, actions in enumerate(expected):
        assert mdp.actions_of(state) == \
            (actions or [(None, ((state, 1.0),), 0.0)])
        _assert_python_typed(mdp.actions_of(state))


def test_trivial_backups_sum_left_to_right():
    """An acyclic state's backup adds its pairs in order, starting from
    0.0, exactly as a scalar loop does, for every support of fewer than
    8 pairs: the sums are bit-identical, not merely close."""
    rng = np.random.default_rng(2012)
    mdp = MDP("fan")
    sinks = [mdp.add_state() for _ in range(7)]
    sources = [mdp.add_state() for _ in range(300)]
    for state in sources:
        for _ in range(int(rng.integers(1, 3))):
            support = rng.permutation(sinks)[:int(rng.integers(1, 8))]
            weights = rng.random(len(support)) + 0.01
            probs = weights / weights.sum()
            mdp.add_action(state, list(zip(probs.tolist(), support.tolist())),
                           reward=float(rng.choice([0.0, 0.5, 3.0])))
    mdp.finalize()
    base = np.zeros(mdp.num_states)
    base[sinks] = rng.normal(size=7) * 10.0 ** rng.integers(-3, 17, size=7)
    frozen = np.zeros(mdp.num_states, dtype=bool)
    frozen[sinks] = True
    for maximize in (True, False):
        values = base.copy()
        assert topological_value_iteration(
            mdp, values, frozen, maximize,
            rewards=mdp.action_rewards) == len(sources)
        for state in sources:
            best = None
            for _label, pairs, reward in mdp.actions_of(state):
                backup = 0.0
                for t, p in pairs:
                    backup += p * base[t]
                backup += reward
                if best is None or (backup > best if maximize
                                    else backup < best):
                    best = backup
            assert values[state] == best
        assert np.array_equal(values[sinks], base[sinks])


def test_acyclic_solve_reports_progress():
    """Value iteration samples its ``mdp.vi`` series once per sweep of
    a cyclic component.  A fully acyclic solve makes no such sweep (one
    backup per state, level by level), so a long chain records no
    series: its progress is the backup counter and the ``mdp.vi.done``
    event."""
    mdp = MDP("chain")
    states = [mdp.add_state() for _ in range(200)]
    sink = mdp.add_state()
    for s, t in zip(states, states[1:]):
        mdp.add_action(s, [(0.5, t), (0.5, sink)])
    with collecting() as collector, recording() as rec:
        values = core.reachability_probability(mdp, {states[-1]})
    data = rec.to_dict()
    assert collector.counters()["mdp.vi_iterations"] == 199
    assert logical_series(data["series"]) == {}
    done, = [e for e in data["events"] if e["name"] == "mdp.vi.done"]
    assert done["fields"]["iterations"] == 199
    assert values[0] == 0.5 ** 199


def test_solve_spans_split_finalize_and_precomputation():
    """A traced solve reports ``mdp.finalize`` once and one
    ``mdp.prob01`` span per query, so a report splits solve time into
    finalize, precomputation and value iteration without a rerun."""
    mdp = MDP("coin")
    start, goal, _fail = (mdp.add_state() for _ in range(3))
    mdp.add_action(start, [(0.5, goal), (0.5, 2)], reward=1.0)
    with tracing() as tracer:
        core.reachability_probability(mdp, {goal})
        core.expected_total_reward(mdp, {goal}, maximize=False)
        core.reachability_probability(mdp, {goal}, maximize=False)
    assert [(s.name, s.attributes) for s in tracer.roots] == [
        ("mdp.finalize", {"states": 3}),
        ("mdp.prob01", {"maximize": True}),
        ("mdp.prob01", {"maximize": False}),
        ("mdp.prob01", {"maximize": False})]


class TestEndComponentInterval:
    """The hand-built counterexample from the issue: a MEC with an
    escape action.  True Pmax(reach goal) from s0 is 0.5, but the
    stay-action keeps the naive upper sequence at 1."""

    def build(self):
        mdp = MDP("ec")
        s0, goal, sink = (mdp.add_state() for _ in range(3))
        mdp.add_action(s0, [(1.0, s0)])                    # stay (MEC)
        mdp.add_action(s0, [(0.5, goal), (0.5, sink)])     # escape coin
        mdp.add_action(goal, [(1.0, goal)])
        mdp.add_action(sink, [(1.0, sink)])
        return mdp, {1}

    def test_reference_interval_is_unsound(self):
        mdp, targets = self.build()
        midpoint = ref.reachability_probability(
            mdp, targets, maximize=True, interval=True)
        # Documented wrong answer: upper pinned at 1 -> midpoint 0.75.
        assert midpoint[0] == pytest.approx(0.75, abs=1e-6)

    def test_core_interval_is_sound(self):
        mdp, targets = self.build()
        midpoint = core.reachability_probability(
            mdp, targets, maximize=True, interval=True)
        assert abs(midpoint[0] - 0.5) <= TOL

    def test_plain_values_agree(self):
        mdp, targets = self.build()
        assert core.reachability_probability(mdp, targets)[0] == \
            pytest.approx(ref.reachability_probability(mdp, targets)[0],
                          abs=TOL)


def _assert_same_build(dm_new, dm_ref):
    assert [s.key() for s in dm_new.states] == \
        [s.key() for s in dm_ref.states]
    _assert_same_arrays(dm_new.mdp.finalize(), dm_ref.mdp.finalize())


class TestPipelineDifferential:
    """Full digital-clocks pipelines: memoised builder + sparse core vs
    the seed builder + seed analyses."""

    def test_brp(self):
        dm_new = build_digital_mdp(brp.make_brp(16, 2, 1))
        dm_ref = reference_build_digital_mdp(brp.make_brp(16, 2, 1))
        _assert_same_build(dm_new, dm_ref)
        targets = dm_new.states_where(brp.not_success)
        for maximize in (True, False):
            truth = ref.reachability_probability(
                dm_ref.mdp, targets, maximize=maximize)
            assert np.max(np.abs(core.reachability_probability(
                dm_new.mdp, targets, maximize=maximize) - truth)) <= TOL
            assert np.max(np.abs(core.reachability_probability(
                dm_new.mdp, targets, maximize=maximize, interval=True)
                - truth)) <= TOL
        new_r = core.expected_total_reward(
            dm_new.mdp, dm_new.states_where(brp.reported), maximize=True)
        ref_r = ref.expected_total_reward(
            dm_ref.mdp, dm_ref.states_where(brp.reported), maximize=True)
        finite = ~np.isinf(ref_r)
        assert np.array_equal(np.isinf(new_r), ~finite)
        assert np.max(np.abs(new_r[finite] - ref_r[finite])) <= TOL

    def test_brp_deadline_clock(self):
        """A deadline clock and ``extra_constants``: the bound plans of
        guards and invariants over a clock that only a query bounds."""
        networks = [brp.make_brp(4, 2, 1, with_deadline_clock=True)
                    for _ in range(2)]
        extra = {networks[0].process_by_name("Watch").resolve_clock("t"):
                 21}
        dm_new = build_digital_mdp(networks[0], extra_constants=extra)
        dm_ref = reference_build_digital_mdp(networks[1],
                                             extra_constants=extra)
        assert dm_new.mdp.num_states == 4416
        _assert_same_build(dm_new, dm_ref)

    def test_firewire(self):
        dm_new = build_digital_mdp(firewire.make_firewire())
        dm_ref = reference_build_digital_mdp(firewire.make_firewire())
        _assert_same_build(dm_new, dm_ref)
        n = dm_new.mdp.num_states
        targets = set(range(0, n, 5)) or {0}
        for maximize in (True, False):
            truth = ref.reachability_probability(
                dm_ref.mdp, targets, maximize=maximize)
            assert np.max(np.abs(core.reachability_probability(
                dm_new.mdp, targets, maximize=maximize) - truth)) <= TOL


class TestBuilderLimits:
    def test_max_states_cap_is_exact(self):
        needed = build_digital_mdp(brp.make_brp(2, 1, 1)).mdp.num_states
        # Exactly enough states: no limit error.
        dm = build_digital_mdp(brp.make_brp(2, 1, 1), max_states=needed)
        assert dm.mdp.num_states == needed
        # One fewer: the limit fires, and nothing past the cap was
        # interned (the satellite fix — the seed builder adds and
        # queues the overflowing state first).
        with pytest.raises(SearchLimitError):
            build_digital_mdp(brp.make_brp(2, 1, 1),
                              max_states=needed - 1)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_collector_state(self, enabled):
        """The build pauses the cyclic garbage collector and leaves it
        as it found it, also when it raises ``SearchLimitError``."""
        was_enabled = gc.isenabled()
        network = brp.make_brp(2, 1, 1)
        try:
            (gc.enable if enabled else gc.disable)()
            build_digital_mdp(network)
            assert gc.isenabled() is enabled
            with pytest.raises(SearchLimitError):
                build_digital_mdp(network, max_states=5)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_states_where_caches_location_names(self):
        dm = build_digital_mdp(brp.make_brp(2, 1, 1))
        first = dm.states_where(brp.not_success)
        assert dm._names_by_locs  # populated on first query
        assert dm.states_where(brp.not_success) == first


#: Table I's exact queries on BRP(16, 2, 1): the sha256 of each value
#: vector's bytes and the ``mdp.vi_iterations`` the query adds.  Any
#: change to the value-iteration loop must keep both exactly.
GOLDEN = {
    "P1-max": ("f2a05b0fe33a06bd817e0f3f83a8bb0d"
               "edb5709f3a5123cc8d0f4adc78097d60", 1194),
    "P1-max-interval": ("f2a05b0fe33a06bd817e0f3f83a8bb0d"
                        "edb5709f3a5123cc8d0f4adc78097d60", 2388),
    "P1-min": ("f2a05b0fe33a06bd817e0f3f83a8bb0d"
               "edb5709f3a5123cc8d0f4adc78097d60", 1194),
    "P1-min-interval": ("f2a05b0fe33a06bd817e0f3f83a8bb0d"
                        "edb5709f3a5123cc8d0f4adc78097d60", 2388),
    "P2-max": ("145f25cbc138abd9cf82f302114a4ac3"
               "fa7104ba1430dade6661904a7f84c551", 1194),
    "P2-max-interval": ("145f25cbc138abd9cf82f302114a4ac3"
                        "fa7104ba1430dade6661904a7f84c551", 2388),
    "P2-min": ("145f25cbc138abd9cf82f302114a4ac3"
               "fa7104ba1430dade6661904a7f84c551", 1194),
    "P2-min-interval": ("145f25cbc138abd9cf82f302114a4ac3"
                        "fa7104ba1430dade6661904a7f84c551", 2388),
    "PA-max": ("45878b8c8bba5f92afcefe10fd47a15d"
               "7f1ed0b875fa9bdee604e7b801eb3f62", 0),
    "PB-max": ("45878b8c8bba5f92afcefe10fd47a15d"
               "7f1ed0b875fa9bdee604e7b801eb3f62", 0),
    "Emax": ("c0c7b0c70a0fd6b28abc09cdabafa208"
             "8ea026dbcde3912285aeb33fe3014d12", 1378),
    "Emin": ("8dc50e2971e51b2d1049a4f2a2a7ba25"
             "9da7be07547e1c2533608a50346ddf06", 1378),
    "Dmax": ("2474aa559807bb09f0e4f6550a16cd2a"
             "90187fb5266acd9f3777e56efd39ddf1", 53731),
}

#: sha256 of ``repr(([s.key() for s in states], [mdp.actions_of(s) for
#: s in range(n)]))`` of Table I's finalized deadline-clock (Dmax)
#: digital MDP: state order, state keys and every stored action, as the
#: builder must produce them.
DMAX_BUILD = ("4fc5c86c7e0f84a16545e44bb39d4c3d"
              "cfb55970f89db5f9297bc94ddbb372b6")


@pytest.fixture(scope="module")
def table1_timed():
    """Table I's deadline-clock network, its digital MDP and whether
    the cyclic garbage collector was enabled: at each
    :class:`~repro.ta.discrete.DiscreteState` the exploration created,
    and after the build returned."""
    timed_net = brp.make_brp(16, 2, 1, with_deadline_clock=True)
    t_index = timed_net.process_by_name("Watch").resolve_clock("t")
    created = []
    state_class = ta_discrete.DiscreteState

    def spy(*args):
        created.append(gc.isenabled())
        return state_class(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ta_discrete, "DiscreteState", spy)
        timed = build_digital_mdp(timed_net, extra_constants={t_index: 65})
    return timed_net, timed, (created, gc.isenabled())


@pytest.fixture(scope="module")
def table1_queries(table1_timed):
    """Query name -> thunk solving it, on Table I's two digital MDPs."""
    untimed = build_digital_mdp(brp.make_brp(16, 2, 1))
    timed_net, timed, _calls = table1_timed
    mdp = untimed.mdp
    reach = {"P1": untimed.states_where(brp.not_success),
             "P2": untimed.states_where(brp.uncertainty),
             "PA": untimed.states_where(brp.bogus_success(16)),
             "PB": untimed.states_where(brp.bogus_failure(16))}
    reported = untimed.states_where(brp.reported)
    in_time = timed.states_where(brp.success_within(64, timed_net))
    queries = {}
    for name, targets in reach.items():
        for maximize in (True, False):
            for interval in (False, True):
                key = (f"{name}-{'max' if maximize else 'min'}"
                       f"{'-interval' if interval else ''}")
                queries[key] = (
                    lambda t=targets, m=maximize, i=interval:
                    core.reachability_probability(
                        mdp, t, maximize=m, interval=i))
    queries["Emax"] = lambda: core.expected_total_reward(
        mdp, reported, maximize=True)
    queries["Emin"] = lambda: core.expected_total_reward(
        mdp, reported, maximize=False)
    queries["Dmax"] = lambda: core.reachability_probability(
        timed.mdp, in_time, maximize=True)
    return queries


class TestGoldenValues:
    """Every Table I value vector, bit for bit, and its backup count."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_query(self, table1_queries, name):
        digest, iterations = GOLDEN[name]
        with collecting() as collector:
            values = table1_queries[name]()
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest
        assert collector.counters().get("mdp.vi_iterations", 0) == \
            iterations

    def test_dmax_build(self, table1_timed):
        _net, timed, _calls = table1_timed
        mdp = timed.mdp.finalize()
        assert mdp.num_states == 68364
        snapshot = repr(([s.key() for s in timed.states],
                         [mdp.actions_of(s)
                          for s in range(mdp.num_states)]))
        assert hashlib.sha256(snapshot.encode()).hexdigest() == DMAX_BUILD

    def test_table1_mdps_peel_completely(self, table1_timed):
        """Both Table I MDPs are acyclic but for self-loops: the sink
        peel takes every state, so Tarjan never runs on them."""
        _net, timed, _calls = table1_timed
        untimed = build_digital_mdp(brp.make_brp(16, 2, 1))
        for mdp, states in ((untimed.mdp, 1463), (timed.mdp, 68364)):
            g = mdp.finalize().graph
            assert len(g.peel_height) == g.scc_count == states
            assert len(level_plan(mdp).levels) == g.peel_height.max() + 1

    def test_dmax_build_pauses_the_collector(self, table1_timed):
        """Every state the exploration loop creates sees the cyclic
        garbage collector paused; after the build returns it is enabled
        again."""
        _net, _timed, (created, enabled_after) = table1_timed
        assert created and not any(created)
        assert enabled_after
