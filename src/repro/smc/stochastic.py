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
  edges of each sending edge.

A run walks the configuration plans through links.  Each plan keeps
one successor link per move taken out of it, keyed on the tuple of
:class:`EdgePlan` that moved: the winner, then the chosen receivers in
process order.  A link holds the successor's locations, its committed
valuation and the moved edges' clock resets, concatenated, and, once a
walk has followed it, the successor's plan.  The updates run only when
the link is made, so a step does only clock arithmetic, window tests
and the contract's draws, and looks a configuration up by key only
when it follows a link for the first time.  The plans live in a
generation-bounded :class:`~repro.core.memo.PlanTable` keyed on
``(locs, valuation.values)``, which unlinks the plans it drops.

Caching the data-guard outcomes and the links assumes that data guards
and updates are pure functions of the valuation, as
:class:`~repro.ta.discrete.DiscreteSemantics` also does for guards.  A
guard is evaluated only where an uncompiled step would evaluate it:
every output edge's guard of every process, and the receive edges of a
channel only when it fires, never the sender's own.  A guard or update
that raises aborts the step and leaves no plan or link behind, so it
raises again on the next visit.

The random stream is a contract: one step draws, in process order, an
``expovariate`` or ``uniform`` delay for every bidding component, then
one ``choice`` for the winner's edge, then, in process order, one
``choice`` among each ready receiver's edges and (binary channels) one
``choice`` among the ready receivers.  Every ``choice`` is drawn, even
among one element.  A seed thus fixes every run.

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

from ..core.distributions import validate_horizon, validate_rate
from ..core.errors import AnalysisError, ModelError
from ..core.expressions import Expr
from ..core.memo import PlanTable
from ..core.rng import ensure_rng
from ..obs.metrics import incr

INFINITY = math.inf

#: Step budget of a run unless the caller gives one.
MAX_STEPS = 100000


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
    """An edge of one process with its data-guard test, clock guard and
    resets compiled against the process's clock indices, the process's
    index, the ``channel`` it synchronises on (``None`` for an internal
    edge) and the ``label`` a step describes it by."""

    __slots__ = ("edge", "process", "channel", "label", "test", "lowers",
                 "uppers", "target", "resets")

    def __init__(self, process, edge):
        self.edge = edge
        self.process = process.index
        self.channel = None if edge.sync is None else edge.sync[0]
        self.label = f"{process.name}:{edge.source}->{edge.target}"
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


def _enabled(edges, valuation):
    """The edges whose data guard holds in ``valuation``, in order:
    ``edges`` itself when that is all of them."""
    enabled = [e for e in edges if e.test is None or e.test(valuation)]
    return edges if len(enabled) == len(edges) else tuple(enabled)


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


class _Link:
    """One successor of a configuration plan: its location indices, its
    committed valuation, the ``(clock index, value)`` resets of the
    edges that moved, and the successor's plan once a walk has followed
    the link (``None`` before that, and again after the table started a
    new generation)."""

    __slots__ = ("locs", "valuation", "resets", "plan")

    def __init__(self, locs, valuation, resets):
        self.locs = locs
        self.valuation = valuation
        self.resets = resets
        self.plan = None


class ConfigPlan:
    """What a step needs of one discrete configuration ``(locs,
    valuation)``: the location names, the bidding rows ``(LocationPlan,
    data-enabled output edges)`` in process order, ``idle_invariant``,
    the upper-bound invariant atoms of every process without such an
    edge, which only cap the race, ``inputs``, the :meth:`receivers` of
    each sending edge once it has fired, and ``links``, the successor
    links by the tuple of edges that moved."""

    __slots__ = ("locs", "valuation", "names", "bids", "idle_invariant",
                 "inputs", "links", "_rows")

    def __init__(self, network, plans, locs, valuation):
        self.locs = locs
        self.valuation = valuation
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
                bids.append((plan, edges))
            else:
                idle.extend(plan.invariant)
        self.bids = tuple(bids)
        self.idle_invariant = tuple(idle)
        self.inputs = {}
        self.links = {}
        self._rows = tuple(rows)

    def receivers(self, network, edge):
        """``(broadcast, rows)`` for the sending ``edge``, kept in
        ``inputs``: whether its channel broadcasts, and ``(guarded,
        data-enabled receive edges)`` on that channel of every process
        but the sender's that has any, in process order; ``guarded``
        tells whether any of those edges has a clock guard."""
        rows = []
        for process, plan in self._rows:
            if process.index != edge.process:
                edges = _enabled(plan.receives.get(edge.channel, ()),
                                 self.valuation)
                if edges:
                    rows.append((any(e.lowers or e.uppers for e in edges),
                                 edges))
        table = self.inputs[edge] = (
            network.channels[edge.channel].broadcast, tuple(rows))
        return table

    def link(self, moved):
        """The successor link of the edges ``moved`` (a tuple of
        :class:`EdgePlan`, one per process), made now: their updates
        run in order on this configuration's valuation."""
        env = self.valuation.env()
        locs = list(self.locs)
        resets = []
        for edge in moved:
            locs[edge.process] = edge.target
            for update in edge.edge.update:
                if callable(update):
                    update(env)
                else:
                    update.apply(env)
            resets.extend(edge.resets)
        link = self.links[moved] = _Link(tuple(locs), env.commit(),
                                         tuple(resets))
        return link

    def unlink(self):
        """Forget the plans of every successor."""
        for link in self.links.values():
            link.plan = None


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
    """The network's :class:`~repro.core.memo.PlanTable` of
    :class:`ConfigPlan`, keyed on ``(locs, valuation.values)``."""
    location_plans(network)
    return network.derived(_config_table)


def _config_table(_network, _extra_constants):
    return PlanTable()


def _ready(rows, clocks, rng):
    """One ``choice`` per receiver row with an edge whose clock guard
    holds now, in row order: the chosen edges."""
    out = []
    for guarded, edges in rows:
        if guarded:
            candidates = []
            for edge in edges:
                for index, bound in edge.lowers:
                    if bound - clocks[index] > 0.0:
                        break
                else:
                    for index, bound in edge.uppers:
                        if bound - clocks[index] < 0.0:
                            break
                    else:
                        candidates.append(edge)
            if not candidates:
                continue
            edges = candidates
        out.append(rng.choice(edges))
    return out


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

    def _config(self, locs, valuation):
        """The plan of a configuration: from the table, or built now."""
        key = (locs, valuation.values)
        config = self._configs.get(key)
        if config is None:
            config = ConfigPlan(self.network, self._plans, locs, valuation)
            self._configs.add(key, config)
        return config

    def _start(self):
        """The initial configuration's plan and clocks."""
        state = self.initial()
        return self._config(state.locs, state.valuation), state.clocks

    # -- one step of the race ------------------------------------------------------

    def step(self, state):
        """Perform one stochastic step.

        Returns ``(delay, transition_description, new_state)`` or ``None``
        when no component can ever act (the run ends).
        """
        move = self._advance(self._config(state.locs, state.valuation),
                             state.clocks)
        if move is None:
            return None
        delay, moved, config, clocks = move
        description = None if moved is None \
            else " || ".join(edge.label for edge in moved)
        return (delay, description,
                ConcreteState(config.locs, config.valuation, clocks))

    def _advance(self, config, clocks):
        """One race from ``clocks`` in the configuration planned by
        ``config``: ``(delay, moved, successor plan, successor clocks)``
        with the tuple of edges that moved (``None``, and the plan
        unchanged, for an output that found no receiver), or ``None``
        when the run ends."""
        rng = self.rng
        inv_cap = INFINITY
        for index, bound in config.idle_invariant:
            gap = bound - clocks[index]
            if gap < inv_cap:
                inv_cap = gap
        best = committed = None
        best_delay = INFINITY
        for plan, edges in config.bids:
            inv = INFINITY
            for index, bound in plan.invariant:
                gap = bound - clocks[index]
                if gap < inv:
                    inv = gap
            if inv < inv_cap:
                inv_cap = inv
            if plan.instant:
                delay = 0.0
                if plan.committed and committed is None:
                    committed = edges
            else:
                windows = []
                lower = INFINITY
                for edge in edges:
                    lo = 0.0
                    for index, bound in edge.lowers:
                        gap = bound - clocks[index]
                        if gap > lo:
                            lo = gap
                    hi = inv
                    for index, bound in edge.uppers:
                        gap = bound - clocks[index]
                        if gap < hi:
                            hi = gap
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
                if len(windows) == 1:
                    lo, hi, edge = windows[0]
                    if not lo <= delay <= hi:
                        continue
                    if len(edges) > 1:
                        edges = (edge,)
                else:
                    edges = [e for lo, hi, e in windows if lo <= delay <= hi]
                    if not edges:
                        continue
            if best is None or delay < best_delay:
                best, best_delay = edges, delay
        if committed is not None:
            best, best_delay = committed, 0.0
        elif best is None:
            return None
        if best_delay > inv_cap + 1e-9:
            # Another component's invariant expires first but it has no
            # action: timelock.  End the run.
            return None
        if best_delay:
            clocks = tuple([c + best_delay for c in clocks])
        edge = rng.choice(best)
        if edge.channel is None:
            moved = (edge,)
        else:
            table = config.inputs.get(edge)
            if table is None:
                table = config.receivers(self.network, edge)
            broadcast, rows = table
            ready = _ready(rows, clocks, rng)
            if broadcast:
                moved = (edge, *ready)
            elif ready:
                moved = (edge, rng.choice(ready))
            else:
                return (best_delay, None, config, clocks)  # output blocks
        link = config.links.get(moved)
        if link is None:
            link = config.link(moved)
        successor = link.plan
        if successor is None:
            successor = link.plan = self._config(link.locs, link.valuation)
        if link.resets:
            clocks = list(clocks)
            for index, value in link.resets:
                clocks[index] = value
            clocks = tuple(clocks)
        return (best_delay, moved, successor, clocks)

    # -- whole runs -------------------------------------------------------------------

    def run(self, max_time, observer=None, stop=None, max_steps=MAX_STEPS):
        """Simulate up to ``max_time`` time units (``None``: unbounded;
        NaN raises :class:`AnalysisError`).

        ``observer(time, names, valuation, clocks)`` is called on the
        initial state and on every state entered at or before
        ``max_time``; a step that crosses the horizon ends the run
        unobserved.  ``stop`` (same signature, returning truth) ends the
        run early.  Returns the elapsed time.

        Each completed run flushes one ``smc.sim.runs`` increment and
        its step count into the active metrics collector (a no-op per
        *run*, not per step, when observability is off).
        """
        max_time = validate_horizon(max_time)
        config, clocks = self._start()
        elapsed = 0.0
        steps = 0
        try:
            for steps in range(max_steps):
                if elapsed > max_time:
                    return elapsed
                names = config.names
                if observer is not None:
                    observer(elapsed, names, config.valuation, clocks)
                if stop is not None and stop(elapsed, names,
                                             config.valuation, clocks):
                    return elapsed
                if elapsed >= max_time:
                    return elapsed
                move = self._advance(config, clocks)
                if move is None:
                    return elapsed
                delay, _moved, config, clocks = move
                elapsed += delay
            steps = max_steps
            raise AnalysisError(f"run exceeded {max_steps} steps")
        finally:
            incr("smc.sim.runs")
            incr("smc.sim.steps", steps)

    def first_passage(self, predicates, horizon):
        """When each predicate first holds on one run up to ``horizon``
        (``None``: unbounded; NaN raises :class:`AnalysisError`):
        ``{key: time}`` (``inf`` = never), for ``predicates`` mapping
        keys to functions of ``(names, valuation, clocks)``.

        The run is :meth:`run` under ``max_time=horizon``, watching the
        predicates in every state it observes and stopping once every
        one has held: same moves, same draws, same counters.  Only the
        predicates still pending are called.
        """
        horizon = validate_horizon(horizon)
        times = dict.fromkeys(predicates, INFINITY)
        pending = list(predicates.items())
        config, clocks = self._start()
        elapsed = 0.0
        steps = 0
        try:
            for steps in range(MAX_STEPS):
                if elapsed > horizon:
                    return times
                names = config.names
                valuation = config.valuation
                hit = False
                for key, test in pending:
                    if test(names, valuation, clocks):
                        times[key] = elapsed
                        hit = True
                if hit:
                    pending = [entry for entry in pending
                               if times[entry[0]] == INFINITY]
                if not pending or elapsed >= horizon:
                    return times
                move = self._advance(config, clocks)
                if move is None:
                    return times
                delay, _moved, config, clocks = move
                elapsed += delay
            steps = MAX_STEPS
            raise AnalysisError(f"run exceeded {MAX_STEPS} steps")
        finally:
            incr("smc.sim.runs")
            incr("smc.sim.steps", steps)


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
