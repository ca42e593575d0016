"""The stochastic semantics of networks of timed automata (UPPAAL-SMC).

Paper, Section II-c: every component, in its current location, picks a
delay — exponentially distributed (with the location's rate) when the
invariant gives no upper bound, uniformly over the allowed interval when
it does.  The component with the shortest delay moves, choosing
uniformly among its enabled output/internal edges; matching receivers
are chosen uniformly (all of them for broadcast).  Committed and urgent
locations act without delay.

The race is compiled in two layers, both built lazily and kept among
the frozen network's derived tables (:meth:`~repro.ta.Network.derived`),
so every simulator of that network shares them:

* Everything that depends only on (process, location) — the location's
  flags and validated rate, its upper-bound invariant atoms and each
  edge's clock guard with resolved clock indices, its output/internal
  edges, and its receive edges grouped by channel — is a
  :class:`LocationPlan`.
* Everything that depends only on the discrete configuration
  ``(locs, valuation)`` is a :class:`ConfigPlan`: the location names,
  one bidding row per process with a data-enabled output edge, the
  invariant atoms of the other processes (they only cap the race for
  timelock), and, built on the first sync, the data-enabled receive
  edges per channel and sender.  The plans live in a
  generation-bounded :class:`~repro.core.memo.MemoTable` keyed on
  ``(locs, valuation.values)``.  A step then only compares clocks.

Caching the data-guard outcomes assumes that data guards are pure
functions of the valuation, as :class:`~repro.ta.discrete.DiscreteSemantics`
also does.  A guard is evaluated only where an uncompiled step would
evaluate it: every output edge's guard of every process, and the
receive edges of a channel only when it fires, never the sender's own.
A guard that raises aborts the step and leaves no plan behind, so it
raises again on the next visit.

The random stream is a contract: one step draws, in process order, an
``expovariate`` or ``uniform`` delay for every bidding component, then
one ``choice`` for the winner's edge, then, in process order, one
``choice`` among each ready receiver's edges and (binary channels) one
``choice`` among the ready receivers.  A seed thus fixes every run.

Limitations: diagonal clock constraints (``x - y ~ c``) in guards or
invariants are not supported and are rejected with :class:`ModelError`
when the simulator is constructed; receiver edges are assumed
clock-guard-free or enabled whenever their sender fires (true for all
models in this repository except the train's ``stop`` reception, whose
guard is checked and, failing, suppresses the receiver — matching
UPPAAL-SMC's input-enabled filtering).
"""

from __future__ import annotations

import math

from ..core.distributions import validate_rate
from ..core.errors import AnalysisError, ModelError
from ..core.expressions import Expr
from ..core.memo import MemoTable
from ..core.rng import ensure_rng
from ..obs.metrics import incr
from .cdf import FirstPassageRecorder

INFINITY = math.inf


class ConcreteState:
    """Dense-time configuration: real-valued clocks."""

    __slots__ = ("locs", "valuation", "clocks")

    def __init__(self, locs, valuation, clocks):
        self.locs = locs
        self.valuation = valuation
        self.clocks = clocks

    def __repr__(self):
        return f"ConcreteState(locs={self.locs})"


# -- per-location plans ----------------------------------------------------------

class EdgePlan:
    """An edge with its data-guard test, clock guard and resets compiled
    against the process's clock indices."""

    __slots__ = ("edge", "test", "lowers", "uppers", "target", "resets")

    def __init__(self, process, edge):
        self.edge = edge
        guard = edge.data_guard
        if guard is None or callable(guard):
            self.test = guard
        elif isinstance(guard, Expr):
            self.test = guard.eval
        else:
            raise ModelError(f"bad data guard {guard!r}")
        lowers, uppers = [], []
        for atom in edge.guard:
            gap = (process.resolve_clock(atom.clock), atom.bound)
            if atom.op in (">", ">=", "=="):
                lowers.append(gap)
            if atom.is_upper_bound():
                uppers.append(gap)
        self.lowers = tuple(lowers)
        self.uppers = tuple(uppers)
        self.target = process.location_index[edge.target]
        self.resets = tuple((process.resolve_clock(clock), float(value))
                            for clock, value in edge.resets)

    def window(self, clocks):
        """Relative-delay window ``(lo, hi)`` in which the clock guard
        holds (``hi`` may be inf)."""
        lo, hi = 0.0, INFINITY
        for index, bound in self.lowers:
            gap = bound - clocks[index]
            if gap > lo:
                lo = gap
        for index, bound in self.uppers:
            gap = bound - clocks[index]
            if gap < hi:
                hi = gap
        return lo, hi


def _enabled(edges, valuation):
    """The edges whose data guard holds in ``valuation``, in order."""
    return tuple(e for e in edges if e.test is None or e.test(valuation))


class LocationPlan:
    """What a step needs of one process standing in one location."""

    __slots__ = ("committed", "instant", "rate", "invariant", "outputs",
                 "receives")

    def __init__(self, process, loc_index):
        loc = process.location(loc_index)
        self.committed = loc.committed
        self.instant = loc.committed or loc.urgent
        self.rate = None if loc.rate is None else validate_rate(loc.rate)
        #: ``(clock index, bound)`` of the upper-bound invariant atoms.
        self.invariant = tuple(
            (process.resolve_clock(atom.clock), atom.bound)
            for atom in loc.invariant if atom.is_upper_bound())
        outputs, receives = [], {}
        for edge in process.edges_from(loc_index):
            plan = EdgePlan(process, edge)
            if edge.sync is not None and edge.sync[1] == "?":
                receives.setdefault(edge.sync[0], []).append(plan)
            else:
                outputs.append(plan)
        self.outputs = tuple(outputs)
        self.receives = {channel: tuple(plans)
                         for channel, plans in receives.items()}


class ConfigPlan:
    """What a step needs of one discrete configuration ``(locs,
    valuation)``: the location names, the bidding rows ``(process,
    LocationPlan, data-enabled output edges)`` in process order, and
    ``idle_invariant``, the upper-bound invariant atoms of every process
    without such an edge, which only cap the race."""

    __slots__ = ("names", "bids", "idle_invariant", "_rows", "_valuation",
                 "_receivers")

    def __init__(self, network, plans, locs, valuation):
        self.names = network.location_vector_names(locs)
        rows, bids, idle = [], [], []
        for process, row, loc_index in zip(network.processes, plans, locs):
            plan = row[loc_index]
            if plan is None:
                # Threads sharing a network may both build a missing
                # plan; the copies are equal, so either is as good.
                plan = row[loc_index] = LocationPlan(process, loc_index)
            rows.append((process, plan))
            edges = _enabled(plan.outputs, valuation)
            if edges:
                bids.append((process, plan, edges))
            else:
                idle.extend(plan.invariant)
        self.bids = tuple(bids)
        self.idle_invariant = tuple(idle)
        self._rows = tuple(rows)
        self._valuation = valuation
        self._receivers = {}

    def receivers(self, channel, sender):
        """``(process, data-enabled receive edges)`` on ``channel`` of
        every process but ``sender`` that has any, in process order."""
        key = (channel, sender.index)
        table = self._receivers.get(key)
        if table is None:
            table = []
            for process, plan in self._rows:
                if process is not sender:
                    edges = _enabled(plan.receives.get(channel, ()),
                                     self._valuation)
                    if edges:
                        table.append((process, edges))
            table = self._receivers[key] = tuple(table)
        return table


def _reject_diagonals(network):
    for process in network.processes:
        constraints = [loc.invariant for loc in process.locations]
        constraints += [edge.guard for edge in process.automaton.edges]
        for atoms in constraints:
            for atom in atoms:
                if atom.other is not None:
                    raise ModelError(
                        f"stochastic semantics: {process.name}: diagonal "
                        f"constraint unsupported ({atom!r})")


def location_plans(network):
    """The per-process tables of :class:`LocationPlan` (``None`` until a
    location is first visited) for a frozen network.

    One of the network's :meth:`~repro.ta.Network.derived` tables, like
    its :func:`config_plans`; the first call rejects diagonal clock
    constraints.
    """
    return network.derived(_location_table)


def _location_table(network, _extra_constants):
    _reject_diagonals(network)
    return [[None] * len(process.locations)
            for process in network.processes]


def config_plans(network):
    """The network's :class:`~repro.core.memo.MemoTable` of
    :class:`ConfigPlan`, keyed on ``(locs, valuation.values)``."""
    location_plans(network)
    return network.derived(_config_table)


def _config_table(_network, _extra_constants):
    return MemoTable()


class StochasticSimulator:
    """Race-based simulation of a TA network."""

    def __init__(self, network, rng=None, default_rate=1.0):
        self.network = network.freeze()
        self.rng = ensure_rng(rng)
        self.default_rate = validate_rate(default_rate)
        self._plans = location_plans(self.network)
        self._configs = config_plans(self.network)

    def initial(self):
        return ConcreteState(
            self.network.initial_locations(),
            self.network.initial_valuation(),
            (0.0,) * self.network.dbm_size)

    def _config(self, state):
        key = (state.locs, state.valuation.values)
        configs = self._configs
        config = configs.get(key)
        if config is None:
            config = ConfigPlan(self.network, self._plans, state.locs,
                                state.valuation)
            configs.add(key, config)
        else:
            configs.hits += 1
        return config

    # -- one step of the race ------------------------------------------------------

    def step(self, state):
        """Perform one stochastic step.

        Returns ``(delay, transition_description, new_state)`` or ``None``
        when no component can ever act (the run ends).
        """
        move = self._advance(state, self._config(state))
        if move is None:
            return None
        delay, participants, new_state = move
        if participants is None:
            return (delay, None, new_state)
        description = " || ".join(
            f"{p.name}:{e.edge.source}->{e.edge.target}"
            for p, e in participants)
        return (delay, description, new_state)

    def _advance(self, state, config):
        """One race from ``state``, whose configuration plan is
        ``config``: ``(delay, participants, new_state)`` with the
        ``(process, EdgePlan)`` pairs that moved (``None`` for an output
        that found no receiver), or ``None`` when the run ends."""
        clocks = state.clocks
        rng = self.rng
        inv_cap = INFINITY
        for index, bound in config.idle_invariant:
            gap = bound - clocks[index]
            if gap < inv_cap:
                inv_cap = gap
        best = first_committed = None
        for process, plan, edges in config.bids:
            inv = INFINITY
            for index, bound in plan.invariant:
                gap = bound - clocks[index]
                if gap < inv:
                    inv = gap
            if inv < inv_cap:
                inv_cap = inv
            if plan.instant:
                delay = 0.0
                if plan.committed and first_committed is None:
                    first_committed = (delay, process, edges)
            else:
                windows = []
                lower = INFINITY
                for edge in edges:
                    lo, hi = edge.window(clocks)
                    if inv < hi:
                        hi = inv
                    if lo <= hi:
                        windows.append((lo, hi, edge))
                        if lo < lower:
                            lower = lo
                if not windows:
                    continue
                if inv == INFINITY:
                    rate = plan.rate if plan.rate is not None \
                        else self.default_rate
                    delay = lower + rng.expovariate(rate)
                else:
                    delay = rng.uniform(lower, inv)
                edges = [e for lo, hi, e in windows if lo <= delay <= hi]
                if not edges:
                    continue
            if best is None or delay < best[0]:
                best = (delay, process, edges)
        winner = first_committed or best
        if winner is None:
            return None
        delay, process, edges = winner
        if delay > inv_cap + 1e-9:
            # Another component's invariant expires first but it has no
            # action: timelock.  End the run.
            return None
        mid = ConcreteState(state.locs, state.valuation,
                            tuple([c + delay for c in clocks]))
        return self._fire(mid, config, process, rng.choice(edges), delay)

    def _fire(self, state, config, process, edge, delay):
        participants = [(process, edge)]
        sync = edge.edge.sync
        if sync is not None:
            receivers = self._ready_receivers(state, config, process,
                                              sync[0])
            if self.network.channels[sync[0]].broadcast:
                participants.extend(receivers)
            else:
                if not receivers:
                    return (delay, None, state)  # output blocks: no-op
                participants.append(self.rng.choice(receivers))
        # Execute: updates in order, then resets.
        env = state.valuation.env()
        locs = list(state.locs)
        clocks = list(state.clocks)
        for proc, plan in participants:
            locs[proc.index] = plan.target
            for update in plan.edge.update:
                if callable(update):
                    update(env)
                else:
                    update.apply(env)
            for index, value in plan.resets:
                clocks[index] = value
        return (delay, participants,
                ConcreteState(tuple(locs), env.commit(), tuple(clocks)))

    def _ready_receivers(self, state, config, sender, channel_name):
        out = []
        for process, edges in config.receivers(channel_name, sender):
            candidates = []
            for edge in edges:
                lo, hi = edge.window(state.clocks)
                if lo <= 0.0 <= hi:
                    candidates.append(edge)
            if candidates:
                out.append((process, self.rng.choice(candidates)))
        return out

    # -- whole runs -------------------------------------------------------------------

    def run(self, max_time, observer=None, stop=None, max_steps=100000):
        """Simulate up to ``max_time`` time units.

        ``observer(time, names, valuation, clocks)`` is called on the
        initial state and on every state entered at or before
        ``max_time``; a step that crosses the horizon ends the run
        unobserved.  ``stop`` (same signature, returning truth) ends the
        run early.  Returns the elapsed time.

        Each completed run flushes one ``smc.sim.runs`` increment and
        its step count into the active metrics collector (a no-op per
        *run*, not per step, when observability is off).
        """
        state = self.initial()
        elapsed = 0.0
        steps = 0
        try:
            for steps in range(max_steps):
                if elapsed > max_time:
                    return elapsed
                config = self._config(state)
                names = config.names
                if observer is not None:
                    observer(elapsed, names, state.valuation, state.clocks)
                if stop is not None and stop(elapsed, names,
                                             state.valuation, state.clocks):
                    return elapsed
                if elapsed >= max_time:
                    return elapsed
                move = self._advance(state, config)
                if move is None:
                    return elapsed
                delay, _participants, state = move
                elapsed += delay
            steps = max_steps
            raise AnalysisError(f"run exceeded {max_steps} steps")
        finally:
            incr("smc.sim.runs")
            incr("smc.sim.steps", steps)

    def first_passage(self, predicates, horizon):
        """When each predicate first holds on one run up to ``horizon``:
        ``{key: time}`` (``inf`` = never), for ``predicates`` mapping
        keys to functions of ``(names, valuation, clocks)``.  The run
        stops once every predicate has held."""
        recorder = FirstPassageRecorder(predicates)
        self.run(max_time=horizon, observer=recorder,
                 stop=recorder.all_seen)
        return recorder.times


# -- module-level run entry points (picklable, for the parallel runtime) ------

def network_simulator(model, rng=None, default_rate=1.0):
    """Build a :class:`StochasticSimulator` for a live network or a
    :class:`~repro.runtime.Spec` naming a model factory (resolved and
    cached per process, so workers rebuild the model once).

    Module-level so ``functools.partial(network_simulator, spec)`` is a
    picklable simulator factory for :func:`repro.smc.first_passage_cdfs`.
    """
    from ..runtime.spec import build_cached

    return StochasticSimulator(build_cached(model), rng=rng,
                               default_rate=default_rate)


def simulate_once(model, prop, horizon, rng=None, default_rate=1.0):
    """One time-bounded reachability run: did ``prop`` hold within
    ``horizon``?  ``model`` and ``prop`` may be live objects or specs."""
    from ..runtime.spec import build_cached

    simulator = network_simulator(model, rng=ensure_rng(rng),
                                  default_rate=default_rate)
    times = simulator.first_passage({"prop": build_cached(prop)}, horizon)
    return times["prop"] != math.inf
