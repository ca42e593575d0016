"""Sparse Markov decision processes.

The explicit-state model underlying the probabilistic engines: the
digital-clocks translation of PTA (``repro.pta``) compiles into an
:class:`MDP`, which the analyses in :mod:`repro.mdp.analysis` solve —
the role PRISM plays as the backend of mcpta in the paper.

A DTMC is simply an MDP with one action per state.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from ..core.errors import ModelError
from ..obs import span


class MDP:
    """An MDP under construction and its frozen sparse form.

    Build with :meth:`add_state` / :meth:`add_action`, then call
    :meth:`finalize`.  States without actions receive an implicit
    self-loop so every state has at least one enabled action (the usual
    explicit-engine convention for absorbing states).
    """

    def __init__(self, name="mdp"):
        self.name = name
        self._actions = []       # per state: list of (label, pairs, reward)
        self.labels = {}         # label -> set of state indices
        self.initial_state = 0
        self._frozen = False

    # -- construction -----------------------------------------------------------

    def add_state(self, labels=()):
        if self._frozen:
            raise ModelError("MDP already finalized")
        index = len(self._actions)
        self._actions.append([])
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
        :meth:`finalize` flattens into ``cols`` / ``probs``.
        """
        if self._frozen:
            raise ModelError("MDP already finalized")
        try:
            actions = self._actions[state] if state >= 0 else None
        except (IndexError, TypeError):
            actions = None
        if actions is None:
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
            actions.append((label, ((t, 0.0 + p),), reward))
            return
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
        actions.append((label, tuple(merged.items()), reward))

    @property
    def num_states(self):
        return len(self._actions)

    @property
    def num_transitions(self):
        if self._frozen:
            return len(self.cols)
        return sum(len(pairs) for acts in self._actions
                   for _l, pairs, _r in acts)

    def actions_of(self, state):
        return self._actions[state]

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
        for state, acts in enumerate(self._actions):
            if not acts:
                acts.append((None, ((state, 1.0),), 0.0))
        # Flat layout: transitions grouped by action, actions by state.
        probs, cols = [], []
        action_offsets = [0]
        action_rewards = []
        state_offsets = [0]
        for acts in self._actions:
            for _label, pairs, reward in acts:
                for target, p in pairs:
                    probs.append(p)
                    cols.append(target)
                action_offsets.append(len(probs))
                action_rewards.append(reward)
            state_offsets.append(len(action_rewards))
        n = len(self._actions)
        cols = np.asarray(cols)
        if cols.size and cols.dtype.kind not in "iu":
            raise ModelError(
                f"action targets of {self.name} must be state indices")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            bad = cols[(cols < 0) | (cols >= n)][0]
            raise ModelError(
                f"action target {bad} is not a state of {self.name} "
                f"({n} states)")
        self.probs = np.asarray(probs, dtype=np.float64)
        self.cols = cols.astype(np.int64, copy=False)
        self.action_offsets = np.asarray(action_offsets[:-1], dtype=np.int64)
        self.action_rewards = np.asarray(action_rewards, dtype=np.float64)
        self.state_offsets = np.asarray(state_offsets[:-1], dtype=np.int64)
        self.num_actions = len(action_rewards)
        self._frozen = True
        from .graph import GraphCore
        self.graph = GraphCore.build(self)

    def successors(self, state):
        """Union of all action supports (graph view)."""
        out = set()
        for _label, pairs, _reward in self._actions[state]:
            out.update(t for t, _p in pairs)
        return out

    def __repr__(self):
        return (f"MDP({self.name}, {self.num_states} states, "
                f"{self.num_transitions} transitions)")
