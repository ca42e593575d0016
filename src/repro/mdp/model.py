"""Sparse Markov decision processes.

The explicit-state model underlying the probabilistic engines: the
digital-clocks translation of PTA (``repro.pta``) compiles into an
:class:`MDP`, which the analyses in :mod:`repro.mdp.analysis` solve —
the role PRISM plays as the backend of mcpta in the paper.

A DTMC is simply an MDP with one action per state.
"""

from __future__ import annotations

from math import isfinite
from operator import index as as_index

import numpy as np

from ..core.errors import ModelError
from ..obs import span


class MDP:
    """An MDP under construction and its frozen sparse form.

    Build with :meth:`add_state` / :meth:`add_action`, then call
    :meth:`finalize`.  States without actions receive an implicit
    self-loop so every state has at least one enabled action (the usual
    explicit-engine convention for absorbing states).

    The model is flat from its first action on.  While it is built it
    holds append-only buffers, one entry per action in the order the
    actions were added (``_source``, ``_label``, ``_reward`` and
    ``_end``, the end offset of its transitions) and one entry per
    transition (``_target``, ``_prob``).  Every pair stored there is
    merged and positive.  :meth:`add_action` appends to them, and so
    do :func:`repro.pta.build_digital_mdp` and the MEC quotient of
    :mod:`repro.mdp.analysis`, which write the same layout directly.
    A builder that writes every action at once may hand the numeric
    buffers over as numpy arrays (``_label`` stays a list); the MDP
    then takes no further actions.  :meth:`finalize` groups the
    buffers by source state into the frozen arrays: ``cols`` /
    ``probs`` per transition grouped by action, ``action_offsets``,
    ``action_rewards`` and ``action_labels`` per action grouped by
    state, ``state_offsets`` per state.  :meth:`actions_of` reads
    either form.
    """

    def __init__(self, name="mdp"):
        self.name = name
        self.labels = {}         # label -> set of state indices
        self.initial_state = 0
        self.num_states = 0
        self._frozen = False
        self._source, self._label, self._reward, self._end = [], [], [], []
        self._target, self._prob = [], []
        #: (action count, per-state action indices) of the buffers, for
        #: :meth:`actions_of` before :meth:`finalize`
        self._by_source = (0, [])

    # -- construction -----------------------------------------------------------

    def add_state(self, labels=()):
        if self._frozen:
            raise ModelError("MDP already finalized")
        index = self.num_states
        self.num_states = index + 1
        for label in labels:
            self.labels.setdefault(label, set()).add(index)
        return index

    def label_state(self, state, label):
        self.labels.setdefault(label, set()).add(state)

    def add_action(self, state, pairs, label=None, reward=0.0):
        """Attach an action to ``state``.

        ``pairs`` is a list of ``(probability, target_state)``; the
        probabilities must sum to 1 (within rounding), and the reward
        must be finite; a NaN anywhere is rejected.  Pairs naming
        the same target are merged by summing their probabilities, and
        zero-probability pairs are dropped.  Note the *stored* shape
        (as returned by :meth:`actions_of`) is the transposed
        post-merge tuple ``(target_state, probability)`` — the layout
        :meth:`finalize` groups into ``cols`` / ``probs``.
        """
        if self._frozen:
            raise ModelError("MDP already finalized")
        if not isinstance(self._target, list):
            raise ModelError("MDP buffers were handed over complete")
        try:
            source = as_index(state)
        except TypeError:
            source = -1
        if not 0 <= source < self.num_states:
            raise ModelError(f"unknown source state {state!r}")
        reward = float(reward)
        if not isfinite(reward):
            raise ModelError(f"non-finite action reward {reward}")
        if len(pairs) == 1:
            # Dirac fast path: the checks and the stored shape of the
            # general path below (whose merge stores ``0.0 + p``).
            ((p, t),) = pairs
            if not (abs(p - 1.0) <= 1e-9):
                raise ModelError(
                    f"action probabilities sum to {p}, expected 1")
            self._target.append(t)
            self._prob.append(0.0 + p)
        else:
            total = sum(p for p, _t in pairs)
            if not (abs(total - 1.0) <= 1e-9):
                raise ModelError(
                    f"action probabilities sum to {total}, expected 1")
            merged = {}
            for p, t in pairs:
                if p < 0:
                    raise ModelError(f"negative probability {p}")
                if p > 0:
                    merged[t] = merged.get(t, 0.0) + p
            self._target.extend(merged)
            self._prob.extend(merged.values())
        self._source.append(source)
        self._label.append(label)
        self._reward.append(reward)
        self._end.append(len(self._target))

    @property
    def num_transitions(self):
        return len(self.cols) if self._frozen else len(self._target)

    def actions_of(self, state):
        """The actions of ``state`` as ``(label, ((target, probability),
        ...), reward)`` tuples, in the order they were added (after
        :meth:`finalize`, the implicit self-loop of an action-less
        state)."""
        if self._frozen:
            g = self.graph
            first = int(g.state_offsets_all[state])
            last = int(g.state_offsets_all[state + 1])
            bounds = g.action_offsets_all[first:last + 1].tolist()
            targets = self.cols[bounds[0]:bounds[-1]].tolist()
            probs = self.probs[bounds[0]:bounds[-1]].tolist()
            bounds = [b - bounds[0] for b in bounds]
            return [
                (label, tuple(zip(targets[lo:hi], probs[lo:hi])), reward)
                for label, lo, hi, reward in zip(
                    self.action_labels[first:last], bounds, bounds[1:],
                    self.action_rewards[first:last].tolist())]
        count, by_source = self._by_source
        if count != len(self._source) or len(by_source) != self.num_states:
            by_source = [[] for _ in range(self.num_states)]
            for action, source in enumerate(self._source):
                by_source[source].append(action)
            self._by_source = (len(self._source), by_source)
        ends, targets, probs = self._end, self._target, self._prob
        actions = []
        for a in by_source[state]:
            lo, hi = ends[a - 1] if a else 0, ends[a]
            to, p = targets[lo:hi], probs[lo:hi]
            if not isinstance(to, list):   # buffers handed over as arrays
                to, p = to.tolist(), p.tolist()
            actions.append((self._label[a], tuple(zip(to, p)),
                            float(self._reward[a])))
        return actions

    def states_with(self, label):
        return self.labels.get(label, set())

    # -- frozen sparse form --------------------------------------------------------

    def finalize(self):
        """Compile to flat arrays for vectorised value iteration.

        Also builds the derived :class:`repro.mdp.graph.GraphCore`
        (predecessor CSR + SCC decomposition) as ``self.graph``; the
        analyses in :mod:`repro.mdp.analysis` run on those arrays.
        """
        if self._frozen:
            return self
        with span("mdp.finalize", states=self.num_states):
            self._compile()
        return self

    def _compile(self):
        from .graph import GraphCore, concat_ranges

        n = self.num_states
        targets = np.asarray(self._target)
        if targets.size and targets.dtype.kind not in "iu":
            raise ModelError(
                f"action targets of {self.name} must be state indices")
        sources = np.asarray(self._source, dtype=np.int64)
        m = len(targets)
        counts = np.bincount(sources, minlength=n)
        # Every action-less state gets a self-loop, appended last.
        idle = np.flatnonzero(counts == 0)
        sources = np.concatenate((sources, idle))
        ends = np.concatenate((np.asarray(self._end, dtype=np.int64),
                               np.arange(m + 1, m + 1 + len(idle))))
        lengths = np.diff(ends, prepend=0)
        # Stable group-by-source: builders may add states' actions in
        # any state order, but a state's own actions keep theirs.
        order = np.argsort(sources, kind="stable")
        trans = concat_ranges((ends - lengths)[order], ends[order])
        cols = np.concatenate(
            (targets.astype(np.int64, copy=False), idle))[trans]
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            bad = cols[(cols < 0) | (cols >= n)][0]
            raise ModelError(
                f"action target {bad} is not a state of {self.name} "
                f"({n} states)")
        self.cols = cols
        self.probs = np.concatenate(
            (np.asarray(self._prob, dtype=np.float64),
             np.ones(len(idle))))[trans]
        lengths = lengths[order]
        self.action_offsets = np.cumsum(lengths) - lengths
        self.action_rewards = np.concatenate(
            (np.asarray(self._reward, dtype=np.float64),
             np.zeros(len(idle))))[order]
        labels = self._label + [None] * len(idle)
        self.action_labels = [labels[a] for a in order.tolist()]
        counts[idle] = 1
        self.state_offsets = np.cumsum(counts) - counts
        self.num_actions = len(order)
        self._frozen = True
        self._source = self._label = self._reward = self._end = None
        self._target = self._prob = self._by_source = None
        self.graph = GraphCore.build(self)

    def successors(self, state):
        """Union of all action supports (graph view)."""
        return {t for _label, pairs, _reward in self.actions_of(state)
                for t, _p in pairs}

    def __repr__(self):
        return (f"MDP({self.name}, {self.num_states} states, "
                f"{self.num_transitions} transitions)")
