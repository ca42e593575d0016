"""A distributed-style BIP execution engine.

The paper notes BIP's operational semantics "has been implemented by
specific execution engines for centralized, distributed and real-time
execution".  This engine emulates the distributed one: in each round it
fires a *maximal set of non-conflicting interactions* concurrently —
two interactions conflict when they share a component (they compete for
its single transition) — as a 3-layer BIP engine with distributed
conflict resolution would.

Every distributed round linearises into a sequence of centralized steps
(the fired interactions touch disjoint components), so the distributed
engine reaches only centralized-reachable states; the test suite checks
this correspondence.
"""

from __future__ import annotations

from ..core.errors import AnalysisError
from ..core.rng import ensure_rng
from .engine import EngineTrace


class DistributedEngine:
    """Round-based concurrent execution of non-conflicting interactions."""

    def __init__(self, system, rng=None):
        self.system = system
        self.rng = ensure_rng(rng)
        self.state = system.initial_state()
        self.trace = EngineTrace()
        self.rounds = 0

    def reset(self):
        self.state = self.system.initial_state()
        self.trace = EngineTrace()
        self.rounds = 0
        return self

    def _select_batch(self, interactions):
        """A random maximal conflict-free subset."""
        pool = list(interactions)
        self.rng.shuffle(pool)
        busy = set()
        batch = []
        for interaction in pool:
            components = set(interaction.components())
            if components & busy:
                continue
            busy |= components
            batch.append(interaction)
        return batch

    def step(self):
        """One distributed round; returns the interactions fired, in
        firing order (empty on deadlock)."""
        interactions = self.system.enabled_interactions(self.state)
        if not interactions:
            self.trace.deadlocked = True
            return []
        fired = []
        for interaction in self._select_batch(interactions):
            # Batch members touch disjoint components, but a transfer may
            # rewrite any component's data and so disable a later
            # member's guards: each member after the first fires only if
            # it is still enabled with the same transitions.
            key = (interaction.connector, interaction.participants)
            if fired and key not in [
                    (i.connector, i.participants)
                    for i in self.system.enabled_interactions(self.state)]:
                continue
            self.state = self.system.execute(self.state, interaction)
            self.trace.steps.append(interaction.describe())
            fired.append(interaction)
        self.rounds += 1
        return fired

    def run(self, max_rounds=1000, observer=None, invariant=None):
        if observer is not None:
            observer(self.state)
        for _ in range(max_rounds):
            if invariant is not None and not invariant(self.state):
                raise AnalysisError(
                    f"invariant violated in round {self.rounds}")
            if not self.step():
                return self.trace
            if observer is not None:
                observer(self.state)
        return self.trace

    @property
    def parallelism(self):
        """Average interactions fired per round (the speed-up a
        distributed deployment would realise)."""
        if self.rounds == 0:
            return 0.0
        return len(self.trace.steps) / self.rounds

