"""Graph algorithms on the frozen sparse MDP.

The numerical core behind :mod:`repro.mdp.analysis`: everything here
operates on the flat CSR-style arrays that :meth:`repro.mdp.MDP.finalize`
produces (``probs`` / ``cols`` grouped by action, actions grouped by
state), the layout modern explicit probabilistic engines use (cf. the
Modest Toolset / PRISM explicit engines):

* :class:`GraphCore` — the derived graph structure built once per
  finalize: the *predecessor* CSR (incoming transition indices grouped
  by target state), owner maps (transition -> action -> state) and an
  SCC decomposition whose component ids are in *reverse topological
  order* (every successor component of ``C`` has an id smaller than
  ``C``'s).  The decomposition first trims the graph: sink states
  (out-degree 0 once self-loops are ignored) are peeled bottom up, one
  vectorised level at a time over the predecessor CSR, and become
  singleton SCCs numbered in peel order.  The iterative Tarjan
  (:func:`repro.core.scc.tarjan_scc`) then runs only on the unpeeled
  residue, its ids offset after the peeled ones.  A digital-clocks MDP is mostly an
  acyclic tick structure and typically peels completely, so no
  per-state Python search runs on it at all;
* :func:`maximal_end_components` — the standard iterated-SCC MEC
  decomposition, used to make interval iteration's upper sequence
  sound for maximal reachability;
* :func:`topological_value_iteration` — Jacobi value iteration run
  level by level up the SCC condensation DAG (:func:`level_plan`), so
  each level's acyclic states are solved in one vectorised sweep of a
  single backup each and iteration is confined to the components that
  actually need it.  A peeled state's peel level is its SCC's height in
  the condensation, so the plan reuses those levels and derives only
  the residue components' heights.

The pre-core implementations (full-state set fixpoints, global value
iteration) are preserved verbatim in :mod:`repro.mdp.reference` as the
differential-test oracle.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import AnalysisError
from ..core.scc import tarjan_scc
from ..obs import checkpoint, set_gauge


def concat_ranges(lo, hi):
    """Concatenate the integer ranges ``[lo[k], hi[k])`` into one array."""
    counts = hi - lo
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return ((lo - ends + counts).repeat(counts)
            + np.arange(total, dtype=np.int64))


def _distinct(values):
    """The distinct entries of ``values`` in ascending order: what
    ``np.unique`` returns, at a fraction of its fixed cost on the
    short arrays of an attractor round."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def attractor(g, seeds, need, by_action=False, eligible=None):
    """Backward attractor of the ``seeds`` mask over the predecessor
    CSR of ``g``, one vectorised frontier at a time.

    Each round takes the transitions into the last frontier and maps
    them to *units*: the transitions themselves or, with ``by_action``,
    their actions, each action counted once.  With ``eligible`` (a mask
    over units) only eligible units count.  A state joins once
    ``need[s]`` of its units (``need`` may be a scalar) lead into the
    joined states; one that must never join gets a ``need`` above its
    number of units.  Returns the joined mask and the frontiers: the
    seeds, then the states each round added, each in ascending order.
    """
    joined = seeds.copy()
    need = np.broadcast_to(need, joined.shape)
    count = np.zeros(len(joined), dtype=np.int64)
    if by_action:
        owner = g.action_state
        counted = np.zeros(len(owner), dtype=bool)
    else:
        owner = g.trans_source
    frontier = np.flatnonzero(joined)
    frontiers = []
    while frontier.size:
        frontiers.append(frontier)
        units = g.pred_trans[concat_ranges(g.pred_offsets[frontier],
                                           g.pred_offsets[frontier + 1])]
        if by_action:
            units = _distinct(g.trans_action[units])
            units = units[~counted[units]]
            counted[units] = True
        if eligible is not None:
            units = units[eligible[units]]
        states = owner[units]
        np.add.at(count, states, 1)
        frontier = _distinct(
            states[(count[states] >= need[states]) & ~joined[states]])
        joined[frontier] = True
    return joined, frontiers


class GraphCore:
    """Derived graph structure of a finalized MDP.

    Built once by :meth:`repro.mdp.MDP.finalize`; every analysis in
    :mod:`repro.mdp.analysis` reads these arrays instead of rescanning
    the per-state action lists, and every backward fixpoint runs as an
    :func:`attractor` over the predecessor CSR (``pred_offsets``,
    ``pred_trans``) and the owner maps (``trans_source``,
    ``trans_action``, ``action_state``).  SCC ids below
    ``len(peel_height)`` are the peeled singletons, and ``peel_height``
    holds each one's peel level.  ``levels`` holds the
    :class:`LevelPlan` once the first value iteration has built it.
    """

    __slots__ = (
        "action_offsets_all", "state_offsets_all", "state_trans_offsets",
        "trans_action", "trans_source", "action_state",
        "pred_offsets", "pred_trans",
        "scc_of", "scc_count", "peel_height", "levels",
    )

    @classmethod
    def build(cls, mdp):
        self = cls()
        n = mdp.num_states
        cols = mdp.cols
        m = len(cols)
        num_actions = mdp.num_actions
        self.action_offsets_all = np.append(mdp.action_offsets, m)
        self.state_offsets_all = np.append(mdp.state_offsets, num_actions)
        self.trans_action = np.repeat(
            np.arange(num_actions, dtype=np.int64),
            np.diff(self.action_offsets_all))
        self.action_state = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.state_offsets_all))
        self.trans_source = (self.action_state[self.trans_action]
                             if m else np.empty(0, dtype=np.int64))
        # Transitions of a state's actions are contiguous, so the
        # successor CSR of the *state* graph is just cols sliced by:
        self.state_trans_offsets = self.action_offsets_all[
            self.state_offsets_all]
        # Predecessor CSR: incoming transition indices grouped by target.
        if m:
            self.pred_trans = np.argsort(cols, kind="stable")
            self.pred_offsets = np.concatenate(
                ([0], np.cumsum(np.bincount(cols, minlength=n))))
        else:
            self.pred_trans = np.empty(0, dtype=np.int64)
            self.pred_offsets = np.zeros(n + 1, dtype=np.int64)
        # Sink peel: a state joins once all its transitions but
        # self-loops lead to peeled states; round k is peel level k,
        # the height of its singleton SCCs in the condensation.  States
        # on a cycle, or that reach one, stay unpeeled.
        need = np.bincount(self.trans_source[self.trans_source != cols],
                           minlength=n)
        peeled, levels = attractor(self, need == 0, need)
        self.peel_height = np.repeat(
            np.arange(len(levels), dtype=np.int32),
            [len(level) for level in levels])
        self.scc_count = peel_count = len(self.peel_height)
        scc_of = np.empty(n, dtype=np.int32)
        if levels:
            scc_of[np.concatenate(levels)] = np.arange(peel_count,
                                                       dtype=np.int32)
        if peel_count < n:
            # Tarjan on the subgraph the peel left, renumbered 0..r-1;
            # its edges into peeled states lead to smaller ids anyway.
            residue = ~peeled
            local = np.cumsum(residue) - 1
            inner = residue[self.trans_source] & residue[cols]
            offsets_l, targets_l = _filtered_csr(
                n - peel_count, local[self.trans_source[inner]],
                local[cols[inner]])
            residue_scc, count = tarjan_scc(n - peel_count, offsets_l,
                                            targets_l)
            scc_of[residue] = peel_count + np.asarray(residue_scc,
                                                      dtype=np.int32)
            self.scc_count += count
        self.scc_of = scc_of
        self.levels = None
        set_gauge("mdp.scc_count", self.scc_count)
        return self

    def __repr__(self):
        return (f"GraphCore({len(self.action_state)} actions, "
                f"{self.scc_count} SCCs)")


def _filtered_csr(n, src, dst):
    """CSR adjacency (python lists) of an edge subset."""
    if len(src) == 0:
        return [0] * (n + 1), []
    order = np.argsort(src, kind="stable")
    offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(src, minlength=n))))
    return offsets.tolist(), dst[order].tolist()


def maximal_end_components(mdp, restrict=None):
    """Decompose the MDP into maximal end components.

    Standard iterated-SCC algorithm: restrict to actions whose whole
    support stays inside the candidate set, decompose into SCCs, drop
    actions crossing component boundaries and states left without
    actions, repeat until stable.  With ``restrict`` (a boolean mask),
    only states where the mask is ``True`` participate.

    Returns ``(mec_of, count)``: ``mec_of[s]`` is the component id of
    ``s`` (or ``-1`` when ``s`` is in no end component).  Sets the
    ``mdp.mec_states`` gauge on the active collector.
    """
    g = mdp.graph
    n = mdp.num_states
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    num_actions = mdp.num_actions
    cols = mdp.cols
    ta = g.trans_action
    owner = g.action_state
    alive = (np.ones(n, dtype=bool) if restrict is None
             else np.array(restrict, dtype=bool, copy=True))
    act_ok = alive[owner]
    scc_arr = None
    while True:
        # Prune to a fixpoint: an action may not touch a dead state, a
        # state may not survive without an action.
        while True:
            ok = act_ok & alive[owner]
            if len(cols):
                dead_targets = np.bincount(
                    ta, weights=(~alive[cols]).astype(np.float64),
                    minlength=num_actions)
                ok &= dead_targets == 0
            has_act = np.bincount(
                owner[ok], minlength=n).astype(bool)
            new_alive = alive & has_act
            stable = (np.array_equal(ok, act_ok)
                      and np.array_equal(new_alive, alive))
            act_ok, alive = ok, new_alive
            if stable:
                break
        # SCCs of the surviving sub-MDP; actions crossing a component
        # boundary cannot belong to an end component.
        mask_t = act_ok[ta]
        offsets_l, targets_l = _filtered_csr(
            n, g.trans_source[mask_t], cols[mask_t])
        scc_l, _count = tarjan_scc(n, offsets_l, targets_l)
        scc_arr = np.asarray(scc_l, dtype=np.int64)
        if len(cols):
            crossing = np.bincount(
                ta, weights=(scc_arr[cols] != scc_arr[owner][ta]).astype(
                    np.float64),
                minlength=num_actions) > 0
        else:
            crossing = np.zeros(num_actions, dtype=bool)
        leaving = act_ok & crossing
        if not leaving.any():
            break
        act_ok &= ~leaving
    mec_of = np.full(n, -1, dtype=np.int64)
    if alive.any():
        _uniq, compact = np.unique(scc_arr[alive], return_inverse=True)
        mec_of[alive] = compact
        count = len(_uniq)
    else:
        count = 0
    set_gauge("mdp.mec_states", int(alive.sum()))
    return mec_of, count


class LevelPlan:
    """The SCCs of a finalized MDP grouped by their height in the
    condensation DAG: 0 for a bottom SCC, otherwise 1 + the largest
    height among its successor SCCs.  SCCs of one level never reach
    each other, and every SCC they reach lies on a lower level.

    ``trivial`` lists the trivial states (a single-state SCC without a
    self-loop) level by level; level ``k`` owns
    ``trivial[bounds[k]:bounds[k + 1]]``.  Their actions (``acts``) and
    transitions (``trans``) follow in the same order.  A backup scatters
    the transitions' contributions into ``slots`` of a buffer in which
    each action's segment, starting at ``segments``, opens with a zero
    slot, so ``np.add.reduceat`` sums every support of fewer than 8
    pairs strictly left to right from ``0.0``; ``first_action`` then
    groups the action values by state.  All indices are global, and
    ``levels[k]`` holds level ``k``'s views of these arrays plus the
    member arrays of its cyclic SCCs.
    """

    __slots__ = ("trivial", "bounds", "action_count", "slot_count",
                 "levels")

    def __init__(self, mdp):
        g = mdp.graph
        cols = mdp.cols
        height = _scc_heights(g, cols)
        self_looped = g.scc_of[g.trans_source[cols == g.trans_source]]
        trivial_scc = np.bincount(g.scc_of, minlength=g.scc_count) == 1
        trivial_scc[self_looped] = False
        num_levels = int(height.max()) + 1
        state_height = height[g.scc_of]
        trivial = trivial_scc[g.scc_of]
        states = np.flatnonzero(trivial)
        states = states[np.argsort(state_height[states], kind="stable")]
        bounds = np.searchsorted(state_height[states],
                                 np.arange(num_levels + 1))
        acts = concat_ranges(g.state_offsets_all[states],
                             g.state_offsets_all[states + 1]).astype(np.int32)
        first_action = np.concatenate(
            ([0], np.cumsum(np.diff(g.state_offsets_all)[states])))
        # A state's transitions are contiguous across its actions.
        trans = concat_ranges(g.state_trans_offsets[states],
                              g.state_trans_offsets[states + 1]).astype(
                                  np.int32)
        support = np.diff(g.action_offsets_all)[acts].astype(np.int32)
        segments = np.concatenate(([0], np.cumsum(support + 1)))
        # The j-th transition of the i-th action goes to slot i + 1 + j.
        slots = (np.repeat(np.arange(1, len(acts) + 1, dtype=np.int32),
                           support) + np.arange(len(trans), dtype=np.int32))
        act_bounds = first_action[bounds]
        trans_bounds = np.concatenate(([0], np.cumsum(support)))[act_bounds]
        slot_bounds = segments[act_bounds]
        self.trivial = states.astype(np.int32)
        self.bounds = bounds
        self.action_count = len(acts)
        self.slot_count = int(segments[-1])
        first_action = first_action[:-1].astype(np.int32)
        segments = segments[:-1].astype(np.int32)
        # Cyclic SCCs: their member states in ascending order, per level.
        cyclic = [[] for _ in range(num_levels)]
        members = np.flatnonzero(~trivial)
        comps = g.scc_of[members]
        order = np.argsort(comps, kind="stable")
        members, comps = members[order], comps[order]
        for group in np.split(members, np.flatnonzero(np.diff(comps)) + 1):
            if group.size:
                cyclic[height[g.scc_of[group[0]]]].append(group)
        self.levels = [
            (self.trivial[lo:hi], first_action[lo:hi], acts[a_lo:a_hi],
             segments[a_lo:a_hi], trans[t_lo:t_hi], slots[t_lo:t_hi],
             a_lo, a_hi, slots_end, level_cyclic)
            for lo, hi, a_lo, a_hi, t_lo, t_hi, slots_end, level_cyclic
            in zip(
                bounds[:-1].tolist(), bounds[1:].tolist(),
                act_bounds[:-1].tolist(), act_bounds[1:].tolist(),
                trans_bounds[:-1].tolist(), trans_bounds[1:].tolist(),
                slot_bounds[1:].tolist(), cyclic)]


def _scc_heights(g, cols):
    """Height of every SCC in the condensation DAG of ``g``.

    The peeled SCCs take their peel levels.  Residue ids are reverse
    topological and above every peeled id, so one pass over the
    residue's cross edges in ascending source order finds each
    successor's height final before its predecessors read it.
    """
    peeled = len(g.peel_height)
    height = np.zeros(g.scc_count, dtype=np.int32)
    height[:peeled] = g.peel_height
    if peeled == g.scc_count:
        return height
    src = g.scc_of[g.trans_source]
    dst = g.scc_of[cols]
    cross = (src >= peeled) & (src != dst)
    order = np.argsort(src[cross], kind="stable")
    h = height.tolist()
    for c, d in zip(src[cross][order].tolist(), dst[cross][order].tolist()):
        if h[d] >= h[c]:
            h[c] = h[d] + 1
    return np.asarray(h, dtype=np.int32)


def level_plan(mdp):
    """The :class:`LevelPlan` of the finalized ``mdp``, built on first
    use and kept on its :class:`GraphCore` for every later query."""
    g = mdp.graph
    if g.levels is None:
        g.levels = LevelPlan(mdp)
    return g.levels


def topological_value_iteration(mdp, values, frozen, maximize,
                                rewards=None, epsilon=1e-12,
                                max_iterations=1000000):
    """In-place Jacobi value iteration, one level of SCCs at a time.

    Levels are processed bottom up (:class:`LevelPlan`), so by the time
    a level is solved every value it depends on outside its own
    components is final.  The level's live trivial states take a single
    Bellman backup each, all in one vectorised sweep; each cyclic
    component then iterates until its change drops to ``epsilon``.
    Frozen states keep their values.  Returns the total number of
    backups — one per live trivial state plus one per sweep of a cyclic
    component — which the callers flush into the ``mdp.vi_iterations``
    counter.
    """
    if mdp.num_states == 0:
        return 0
    g = mdp.graph
    plan = level_plan(mdp)
    reduce_actions = np.maximum if maximize else np.minimum
    probs, cols = mdp.probs, mdp.cols
    action_offsets_all = g.action_offsets_all
    state_offsets_all = g.state_offsets_all
    live_trivial = ~frozen[plan.trivial]
    # Live trivial states below each level's first one.
    live_before = np.concatenate(
        ([0], np.cumsum(live_trivial)))[plan.bounds].tolist()
    bounds = plan.bounds.tolist()
    slot_values = np.zeros(plan.slot_count)
    trivial_action_values = np.empty(plan.action_count)
    total_iterations = 0
    for level, (states, first_action, lvl_acts, segments, lvl_trans, slots,
                a_lo, a_hi, slots_end, cyclic) in enumerate(plan.levels):
        lo, hi = bounds[level], bounds[level + 1]
        live_count = live_before[level + 1] - live_before[level]
        if live_count:
            slot_values[slots] = probs[lvl_trans] * values[cols[lvl_trans]]
            np.add.reduceat(slot_values[:slots_end], segments,
                            out=trivial_action_values[a_lo:a_hi])
            if rewards is not None:
                trivial_action_values[a_lo:a_hi] += rewards[lvl_acts]
            new_values = reduce_actions.reduceat(
                trivial_action_values[:a_hi], first_action)
            if live_count == hi - lo:
                values[states] = new_values
            else:
                live = live_trivial[lo:hi]
                values[states[live]] = new_values[live]
            total_iterations += live_count
        for members in cyclic:
            live = members[~frozen[members]]
            if live.size == 0:
                continue
            acts = concat_ranges(state_offsets_all[live],
                                 state_offsets_all[live + 1])
            trans = concat_ranges(action_offsets_all[acts],
                                  action_offsets_all[acts + 1])
            sub_probs = probs[trans]
            sub_cols = cols[trans]
            sub_act_offsets = np.concatenate(
                ([0], np.cumsum(action_offsets_all[acts + 1]
                                - action_offsets_all[acts])[:-1]))
            sub_state_offsets = np.concatenate(
                ([0], np.cumsum(state_offsets_all[live + 1]
                                - state_offsets_all[live])[:-1]))
            sub_rewards = rewards[acts] if rewards is not None else None
            for _iteration in range(max_iterations):
                contrib = sub_probs * values[sub_cols]
                action_values = np.add.reduceat(contrib, sub_act_offsets)
                if sub_rewards is not None:
                    action_values = action_values + sub_rewards
                new_values = reduce_actions.reduceat(
                    action_values, sub_state_offsets)
                delta = np.max(np.abs(new_values - values[live]))
                values[live] = new_values
                total_iterations += 1
                checkpoint("mdp.vi", series=lambda: [{
                    "residual": float(delta), "iteration": total_iterations}])
                if delta <= epsilon:
                    break
            else:
                raise AnalysisError(
                    f"value iteration did not converge in {max_iterations} "
                    f"iterations")
    return total_iterations
