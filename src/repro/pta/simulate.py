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

Runs revisit few distinct states, so each digital state's step data is
computed once, by the successor routine
:meth:`~repro.ta.discrete.DiscreteSemantics.expand` that
:func:`~repro.pta.digital.build_digital_mdp` also explores with, and
kept as a step plan: the state, its location names, the enabled
actions with their outcome lists as cumulative branch tables, and the
saturation-checked tick successor.  Each successor is a link that a
walk fills with the successor's plan on its first visit there, so a
run looks a state up by key only when it follows a link for the first
time; after that it moves from plan to plan.  The plans live in a
:class:`~repro.core.memo.PlanTable` on the network's shared semantics
(``step_plans``), so every per-seed simulator of a batch walks one
linked graph.  The table is bounded by generations: when it is full,
every plan in it is unlinked and all are dropped, so
at most ``maxsize`` plans are live, plus the one each walk is standing
on.  Building a plan computes every
enabled action's outcomes, so a probabilistic branch that breaks its
target invariant raises :class:`~repro.core.errors.ModelError` on the
first visit to the state, and a Dirac edge into a broken invariant is
never enabled.

:meth:`DigitalSimulator.first_passage` records when watched predicates
first hold on one run.  Each plan memoises, for one tuple of
predicates at a time, the bitmask of those that hold in its state, so
a predicate is called once per state, not once per step.  This assumes
that predicates are pure functions of ``(names, valuation, clocks)``,
as data guards already are.  The memo is a single ``(predicates,
mask)`` pair, stored in one assignment, so threads walking one network
with different predicates never read each other's masks; the equal
tuples of a campaign's batches share it.

The RNG draw order is a contract.  Per step: under ``"uniform"`` only,
one ``randint(0, len(actions))`` when both a tick and an action are
possible (0 means tick); then, for an action, one ``choice`` among the
enabled actions and one ``random()`` for its branch (drawn even for a
single-branch edge).  ``tests/test_pta_stream.py`` pins the stream.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf

from ..core.distributions import validate_horizon
from ..core.errors import AnalysisError, ModelError
from ..core.rng import ensure_rng
from ..obs.metrics import incr
from ..ta.discrete import DiscreteState
from .digital import digital_semantics

POLICIES = ("max-delay", "min-delay", "uniform", "por")

#: Step budget of a run unless the caller gives one.
MAX_STEPS = 100000


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


class _Link:
    """One successor of a step plan: its state, and the state's plan
    once a walk has visited it (``None`` before that, and again after
    the table started a new generation)."""

    __slots__ = ("state", "plan")

    def __init__(self, state):
        self.state = state
        self.plan = None


class _Action:
    """One enabled fire of a step plan: its transition and its branch
    table, the cumulative branch probabilities (the last one replaced
    by infinity, so it catches any remaining probability) with the
    successor link of each branch."""

    __slots__ = ("transition", "cumulative", "successors")

    def __init__(self, transition, outcomes):
        self.transition = transition
        cumulative = []
        acc = 0.0
        for probability, _locs, _valuation, _clocks in outcomes:
            acc += probability
            cumulative.append(acc)
        cumulative[-1] = inf
        self.cumulative = cumulative
        self.successors = tuple(
            _Link(DiscreteState(locs, valuation, clocks))
            for _p, locs, valuation, clocks in outcomes)


class _StepPlan:
    """Everything a step needs from one digital state: the state, its
    location names, the enabled actions in firing-table order, and the
    tick successor's link (``None`` when time may not pass or every
    clock is saturated).  A plan with neither a tick nor an action is
    stuck.  ``verdicts`` is the first-passage memo, a ``(predicates,
    mask)`` pair or ``None``."""

    __slots__ = ("state", "names", "actions", "tick", "verdicts")

    def __init__(self, semantics, state):
        locs, valuation = state.locs, state.valuation
        fires, ticked = semantics.expand(
            semantics.config_for(locs, valuation), state.clocks)
        self.state = state
        self.names = semantics.network.location_vector_names(locs)
        self.actions = tuple(_Action(fire.transition, outcomes)
                             for fire, outcomes in fires)
        self.tick = (None if ticked is None or ticked == state.clocks
                     else _Link(DiscreteState(locs, valuation, ticked)))
        self.verdicts = None

    def unlink(self):
        """Forget the plans of every successor."""
        if self.tick is not None:
            self.tick.plan = None
        for action in self.actions:
            for link in action.successors:
                link.plan = None

    def judge(self, predicates):
        """Memoise and return ``(predicates, mask)``: the bitmask of the
        ``predicates`` (a tuple) that hold in this plan's state, bit
        ``i`` for ``predicates[i]``."""
        state = self.state
        mask = 0
        for bit, predicate in enumerate(predicates):
            if predicate(self.names, state.valuation, state.clocks):
                mask |= 1 << bit
        verdicts = self.verdicts = (predicates, mask)
        return verdicts


class DigitalSimulator:
    """Simulates runs of a PTA network under a scheduler policy.

    Steps walk the linked step plans of the network's shared
    :func:`~repro.pta.digital.digital_semantics`, so the per-seed
    simulator instances a modes batch creates all reuse one table.
    """

    def __init__(self, network, policy="max-delay", rng=None):
        if policy not in POLICIES:
            raise ModelError(f"unknown policy {policy!r}; pick from "
                             f"{POLICIES}")
        self.network = network.freeze()
        self.policy = policy
        self.rng = ensure_rng(rng)
        self.semantics = digital_semantics(network)
        self._plans = self.semantics.step_plans

    def initial(self):
        return self.semantics.initial()

    def _plan(self, state):
        """The plan of a visited state: from the table, or built now."""
        key = state.key()
        plan = self._plans.get(key)
        if plan is None:
            plan = _StepPlan(self.semantics, state)
            self._plans.add(key, plan)
        return plan

    def _move(self, plan):
        """The scheduler move out of a plan's state: ``(kind, link,
        time_advance)`` with the successor's link, or ``None`` when it
        is stuck."""
        actions = plan.actions
        if plan.tick is not None and (
                not actions or self.policy == "max-delay"
                or (self.policy == "uniform"
                    and self.rng.randint(0, len(actions)) == 0)):
            return ("tick", plan.tick, 1)
        if not actions:
            return None
        if self.policy == "por" and len(actions) > 1:
            # Scheduler-free mode: only sound when the enabled actions
            # are pairwise independent (Bogdoll et al., FORTE'11) —
            # then any resolution is equivalent, so a random one is
            # taken (avoiding starvation of either component).
            from .por import check_confluent

            check_confluent([action.transition for action in actions])
        action = self.rng.choice(actions)
        branch = bisect_right(action.cumulative, self.rng.random())
        return (action.transition, action.successors[branch], 0)

    def step(self, state):
        """One scheduler move; returns (kind, new_state, time_advance)
        or None when the run is stuck (deadlock or quiescence: all
        clocks saturated and no action will ever become enabled)."""
        move = self._move(self._plan(state))
        if move is None:
            return None
        kind, link, dt = move
        return (kind, link.state, dt)

    def run(self, stop=None, max_time=None, max_steps=MAX_STEPS,
            record_trace=False, observer=None, start=None):
        """Simulate until ``stop(state)`` is true, time/step budget runs
        out, or the run deadlocks.

        ``max_time`` ``None`` means unbounded; NaN raises
        :class:`AnalysisError`.  ``stop`` receives ``(location_names,
        valuation, clocks)``;
        ``observer`` additionally receives the elapsed time up front:
        ``observer(elapsed, names, valuation, clocks)``.  ``start``
        overrides the initial state (used by rare-event splitting).

        Each completed run flushes ``pta.sim.runs`` / ``.steps`` /
        ``.time`` into the active metrics collector (no-op lookups once
        per run, not per step, when observability is off).
        """
        max_time = validate_horizon(max_time)
        link = _Link(self.initial() if start is None else start)
        elapsed = 0
        steps = 0
        trace = [] if record_trace else None
        try:
            for steps in range(max_steps):
                plan = link.plan
                if plan is None:
                    plan = link.plan = self._plan(link.state)
                state = plan.state
                names = plan.names
                if observer is not None:
                    observer(elapsed, names, state.valuation, state.clocks)
                if stop is not None and stop(names, state.valuation,
                                             state.clocks):
                    return SimulationRun(state, elapsed, steps, trace)
                if elapsed >= max_time:
                    return SimulationRun(state, elapsed, steps, trace)
                move = self._move(plan)
                if move is None:
                    return SimulationRun(state, elapsed, steps, trace)
                kind, link, dt = move
                elapsed += dt
                if record_trace:
                    trace.append((kind, elapsed))
            steps = max_steps
            raise AnalysisError(f"run exceeded {max_steps} steps")
        finally:
            incr("pta.sim.runs")
            incr("pta.sim.steps", steps)
            incr("pta.sim.time", elapsed)

    def first_passage(self, predicates, horizon):
        """When each predicate first holds on one run up to ``horizon``
        (``None``: unbounded; NaN raises :class:`AnalysisError`):
        ``{key: time}`` (``inf`` = never), for ``predicates`` mapping
        keys to functions of ``(names, valuation, clocks)``.

        The run is :meth:`run` under ``max_time=horizon``, watching the
        predicates in every state it observes and stopping once every
        one has held: same moves, same draws, same counters.
        Predicates must be pure; each plan's verdicts are memoised (see
        the module docstring).
        """
        horizon = validate_horizon(horizon)
        keys = tuple(predicates)
        tests = tuple(predicates.values())
        times = dict.fromkeys(keys, inf)
        pending = (1 << len(keys)) - 1
        link = _Link(self.initial())
        elapsed = 0
        steps = 0
        try:
            for steps in range(MAX_STEPS):
                plan = link.plan
                if plan is None:
                    plan = link.plan = self._plan(link.state)
                verdicts = plan.verdicts
                if verdicts is None or verdicts[0] != tests:
                    verdicts = plan.judge(tests)
                hit = pending & verdicts[1]
                if hit:
                    pending ^= hit
                    for bit, key in enumerate(keys):
                        if hit >> bit & 1:
                            times[key] = elapsed
                if not pending or elapsed >= horizon:
                    return times
                move = self._move(plan)
                if move is None:
                    return times
                _kind, link, dt = move
                elapsed += dt
            steps = MAX_STEPS
            raise AnalysisError(f"run exceeded {MAX_STEPS} steps")
        finally:
            incr("pta.sim.runs")
            incr("pta.sim.steps", steps)
            incr("pta.sim.time", elapsed)
