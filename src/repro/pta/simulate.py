"""Discrete-event simulation of PTA networks (the modes backend).

Simulates the digital-clocks semantics: probabilistic branches are
sampled, while the *nondeterminism* (delay vs. action, choice among
enabled actions) is resolved by an explicit scheduler policy — exactly
the caveat the paper attaches to the modes column of Table I ("we
explicitly specified a scheduler to resolve nondeterminism").

Policies:

* ``"max-delay"`` — tick whenever time may pass; pick uniformly among
  actions otherwise (lazy scheduler; invariants force all progress);
* ``"min-delay"`` — take an action whenever one is enabled;
* ``"uniform"`` — choose uniformly among all enabled moves;
* ``"por"`` — like max-delay for time, but action choices are only
  resolved when provably confluent (pairwise-independent transitions;
  see :mod:`repro.pta.por`) — otherwise the simulation aborts, the
  sound scheduler-free mode the paper attributes to modes.
"""

from __future__ import annotations

from ..core.errors import AnalysisError, ModelError
from ..core.rng import ensure_rng
from ..obs.metrics import active
from .digital import DigitalState, digital_semantics

POLICIES = ("max-delay", "min-delay", "uniform", "por")


class SimulationRun:
    """Outcome of one simulated run."""

    __slots__ = ("final_state", "elapsed", "steps", "trace")

    def __init__(self, final_state, elapsed, steps, trace=None):
        self.final_state = final_state
        self.elapsed = elapsed
        self.steps = steps
        self.trace = trace

    def __repr__(self):
        return f"SimulationRun(elapsed={self.elapsed}, steps={self.steps})"


class DigitalSimulator:
    """Simulates runs of a PTA network under a scheduler policy.

    The untimed firing tables come from the network's shared
    :class:`~repro.pta.digital.DigitalSemantics`, so the per-seed
    simulator instances a modes batch creates all reuse one memoised
    set of transition data.
    """

    def __init__(self, network, policy="max-delay", rng=None):
        if policy not in POLICIES:
            raise ModelError(f"unknown policy {policy!r}; pick from "
                             f"{POLICIES}")
        self.network = network.freeze()
        self.policy = policy
        self.rng = ensure_rng(rng)
        self.semantics = digital_semantics(network)
        self.caps = self.semantics.caps

    def initial(self):
        return self.semantics.initial_state()

    def _enabled_actions(self, state):
        config = self.semantics.config_for(state.locs, state.valuation)
        clocks = state.clocks
        return [fire for fire in config.fires
                if all(atom.holds(clocks[index])
                       for index, atom in fire.guard)]

    def _ticked(self, clocks):
        # The reference clock (index 0) stays at zero.
        return self.semantics.ticked(clocks)

    def _can_tick(self, state):
        if self.semantics.config_for(state.locs, state.valuation).no_delay:
            return False
        return self.semantics.invariants_hold(state.locs,
                                              self._ticked(state.clocks))

    def step(self, state):
        """One scheduler move; returns (kind, new_state, time_advance)
        or None when the run is stuck (deadlock or quiescence: all
        clocks saturated and no action will ever become enabled)."""
        actions = self._enabled_actions(state)
        ticked = self._ticked(state.clocks)
        saturated = ticked == state.clocks
        tick_ok = self._can_tick(state) and not saturated
        if saturated and not actions:
            return None  # nothing can ever change again
        take_tick = False
        if tick_ok and not actions:
            take_tick = True
        elif tick_ok and actions:
            if self.policy == "max-delay":
                take_tick = True
            elif self.policy == "uniform":
                take_tick = self.rng.randint(0, len(actions)) == 0
        if take_tick:
            return ("tick",
                    DigitalState(state.locs, state.valuation, ticked), 1)
        if not actions:
            return None
        if self.policy == "por" and len(actions) > 1:
            # Scheduler-free mode: only sound when the enabled actions
            # are pairwise independent (Bogdoll et al., FORTE'11) —
            # then any resolution is equivalent, so a random one is
            # taken (avoiding starvation of either component).
            from .por import check_confluent

            check_confluent([fire.transition for fire in actions])
        fire = self.rng.choice(actions)
        outcomes = self.semantics.fire(fire, state.clocks)
        x = self.rng.random()
        acc = 0.0
        for probability, succ in outcomes:
            acc += probability
            if x < acc:
                return (fire.transition, succ, 0)
        return (fire.transition, outcomes[-1][1], 0)

    def run(self, stop=None, max_time=None, max_steps=100000,
            record_trace=False, observer=None, start=None):
        """Simulate until ``stop(state)`` is true, time/step budget runs
        out, or the run deadlocks.

        ``stop`` receives ``(location_names, valuation, clocks)``;
        ``observer`` additionally receives the elapsed time up front:
        ``observer(elapsed, names, valuation, clocks)``.  ``start``
        overrides the initial state (used by rare-event splitting).

        Each completed run flushes ``pta.sim.runs`` / ``.steps`` /
        ``.time`` into the active metrics collector (one no-op lookup
        per run when observability is off).
        """
        state = self.initial() if start is None else start
        elapsed = 0
        steps = 0
        trace = [] if record_trace else None
        try:
            for steps in range(max_steps):
                names = self.network.location_vector_names(state.locs)
                if observer is not None:
                    observer(elapsed, names, state.valuation, state.clocks)
                if stop is not None and stop(names, state.valuation,
                                             state.clocks):
                    return SimulationRun(state, elapsed, steps, trace)
                if max_time is not None and elapsed >= max_time:
                    return SimulationRun(state, elapsed, steps, trace)
                move = self.step(state)
                if move is None:
                    return SimulationRun(state, elapsed, steps, trace)
                kind, state, dt = move
                elapsed += dt
                if record_trace:
                    trace.append((kind, elapsed))
            raise AnalysisError(f"run exceeded {max_steps} steps")
        finally:
            collector = active()
            if collector is not None:
                collector.incr("pta.sim.runs")
                collector.incr("pta.sim.steps", steps)
                collector.incr("pta.sim.time", elapsed)
