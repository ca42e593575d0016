"""BIP execution engines.

The centralized engine of the paper's Section IV: at each cycle it
collects the enabled interactions, applies the priority layer, picks one
(randomly, deterministically, or through a user scheduler), and executes
it.  Observers see every state; a fault injector can corrupt component
states between cycles, reproducing the DALA experiment's fault-injection
runs.
"""

from __future__ import annotations

from ..core.errors import AnalysisError, ModelError, SearchLimitError
from ..core.rng import ensure_rng
from ..obs import incr, span


class EngineTrace:
    """What happened during a run."""

    def __init__(self):
        self.steps = []           # interaction descriptions
        self.blocked_count = 0    # interactions suppressed by priority
        self.deadlocked = False

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return (f"EngineTrace({len(self.steps)} steps, "
                f"deadlocked={self.deadlocked})")


class BIPEngine:
    """Centralized execution engine."""

    def __init__(self, system, policy="random", rng=None):
        self.system = system
        self.rng = ensure_rng(rng)
        if policy not in ("random", "first") and not callable(policy):
            raise ModelError(f"unknown policy {policy!r}")
        self.policy = policy
        self.state = system.initial_state()
        self.trace = EngineTrace()

    def reset(self):
        self.state = self.system.initial_state()
        self.trace = EngineTrace()
        return self

    def choose(self, interactions):
        if not interactions:
            return None
        if self.policy == "first":
            return interactions[0]
        if self.policy == "random":
            return self.rng.choice(interactions)
        return self.policy(self.state, interactions)

    def step(self):
        """One engine cycle; returns the fired interaction or ``None``
        on deadlock."""
        candidates = self.system.enumerate_interactions(self.state)
        interactions = self.system.filter_priorities(self.state, candidates)
        self.trace.blocked_count += len(candidates) - len(interactions)
        chosen = self.choose(interactions)
        if chosen is None:
            self.trace.deadlocked = True
            return None
        self.state = self.system.execute(self.state, chosen)
        self.trace.steps.append(chosen.describe())
        return chosen

    def run(self, max_steps=1000, observer=None, invariant=None,
            fault_injector=None):
        """Run until deadlock or the step budget.

        ``observer(state)`` is called after every step; ``invariant``
        (a predicate over the state) raises :class:`AnalysisError` when
        violated; ``fault_injector(engine, step_index)`` may corrupt the
        state before each cycle (the DALA experiment).

        Each run flushes ``bip.steps`` / ``bip.blocked`` deltas (and a
        ``bip.deadlocks`` increment when the run ended in deadlock)
        into the active metrics collector.
        """
        steps_before = len(self.trace.steps)
        blocked_before = self.trace.blocked_count
        was_deadlocked = self.trace.deadlocked
        try:
            if observer is not None:
                observer(self.state)
            for index in range(max_steps):
                if fault_injector is not None:
                    fault_injector(self, index)
                if invariant is not None and not invariant(self.state):
                    raise AnalysisError(
                        f"invariant violated at step {index}: "
                        f"{self.state!r}")
                if self.step() is None:
                    return self.trace
                if observer is not None:
                    observer(self.state)
            return self.trace
        finally:
            incr("bip.runs")
            incr("bip.steps", len(self.trace.steps) - steps_before)
            incr("bip.blocked", self.trace.blocked_count - blocked_before)
            if self.trace.deadlocked and not was_deadlocked:
                incr("bip.deadlocks")

    def inject_place(self, component_name, place):
        """Fault injection helper: teleport a component to a place."""
        index = self.system.component_index(component_name)
        component = self.system.components[index]
        if place not in component.places:
            raise ModelError(f"{component_name}: unknown place {place!r}")
        places = list(self.state.places)
        places[index] = place
        self.state = type(self.state)(tuple(places), self.state.valuations)


def explore_statespace(system, max_states=100000):
    """Exact reachability of the flat system (used to confirm or refute
    the potential deadlocks reported by D-Finder).

    Returns ``(states, deadlocks)`` where ``deadlocks`` are reachable
    states with no enabled interaction (before priorities — priorities
    cannot unblock, only restrict, so this is the optimistic check; with
    priorities applied every deadlock here remains one).
    """
    with span("bip.explore") as sp:
        initial = system.initial_state()
        seen = {initial.key(): initial}
        queue = [initial]
        deadlocks = []
        while queue:
            state = queue.pop()
            interactions = system.enumerate_interactions(state)
            if not interactions:
                deadlocks.append(state)
                continue
            for interaction in interactions:
                succ = system.execute(state, interaction)
                key = succ.key()
                if key not in seen:
                    seen[key] = succ
                    queue.append(succ)
                    if len(seen) > max_states:
                        raise SearchLimitError(
                            f"state space exceeds {max_states} states",
                            limit=max_states)
        sp.set("states", len(seen))
        sp.set("deadlocks", len(deadlocks))
    incr("bip.states", len(seen))
    incr("bip.deadlock_states", len(deadlocks))
    return list(seen.values()), deadlocks
