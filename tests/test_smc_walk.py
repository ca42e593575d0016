"""The stochastic simulator's linked walk against the keyed loop it
replaced, and the horizon contract both simulators share.

:class:`repro.smc.StochasticSimulator` moves from configuration plan to
configuration plan through links that hold each successor's locations,
committed valuation and resets, so updates run once per link.  The
oracle here is the loop without links: it looks every configuration up
by key on every step, applies the updates on every step, and draws in
the documented order.  On generated networks with broadcast and binary
channels, data guards, updates, committed and urgent locations and
invariants, with the plan table unbounded or renewed every few plans,
``step``, ``run`` and ``first_passage`` must give the oracle's delays,
descriptions and states, and ``first_passage`` the hit times and step
count of ``run`` watched by a :class:`doubles.FirstPassageRecorder`.

The pool test honours ``REPRO_MP_START`` (``fork`` / ``spawn``); under
spawn every worker rebuilds the model and its linked plans.
"""

import gc
import math
import os
import sys
import threading
from functools import partial
from unittest import mock

import pytest
from doubles import FirstPassageRecorder
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalysisError, ModelError
from repro.core.rng import ensure_rng
from repro.core.values import Declarations
from repro.models.traingate import cross_predicate, make_traingate
from repro.obs import collecting
from repro.pta import DigitalSimulator
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    Spec,
    seed_stream,
    seeded_batches,
)
from repro.smc import StochasticSimulator, first_passage_cdfs, stochastic
from repro.smc.cdf import first_passage_batch
from repro.smc.stochastic import (
    ConfigPlan,
    LocationPlan,
    config_plans,
    network_simulator,
)
from repro.ta import Automaton, Network, clk

MP_START = os.environ.get("REPRO_MP_START") or None

SEEDS = (1, 2, 3)
HORIZON = 12
#: Generated networks may loop on zero-delay moves of committed or
#: urgent locations, so runs here get a small step budget.
BUDGET = 200


# -- the oracle: the keyed loop ------------------------------------------------

def window(edge, clocks):
    """Relative-delay window ``(lo, hi)`` in which the clock guard of
    ``edge`` (an :class:`~repro.smc.stochastic.EdgePlan`) holds."""
    lo, hi = 0.0, math.inf
    for index, bound in edge.lowers:
        lo = max(lo, bound - clocks[index])
    for index, bound in edge.uppers:
        hi = min(hi, bound - clocks[index])
    return lo, hi


def enabled(edges, valuation):
    return [e for e in edges if e.test is None or e.test(valuation)]


class KeyedSimulator:
    """The race as the simulator ran it before links.  States are
    ``(locs, valuation, clocks)`` triples."""

    def __init__(self, network, seed, default_rate=1.0):
        self.network = network
        self.rng = ensure_rng(seed)
        self.default_rate = default_rate
        self.plans = {}
        self.configs = {}

    def initial(self):
        network = self.network
        return (network.initial_locations(), network.initial_valuation(),
                (0.0,) * network.dbm_size)

    def config(self, locs, valuation):
        """``(names, bids, idle invariant, rows)`` of a configuration,
        looked up by key on every step."""
        key = (locs, valuation.values)
        config = self.configs.get(key)
        if config is None:
            rows, bids, idle = [], [], []
            for process, loc_index in zip(self.network.processes, locs):
                plan = self.plans.get((process.index, loc_index))
                if plan is None:
                    plan = self.plans[process.index, loc_index] = \
                        LocationPlan(process, loc_index)
                rows.append((process, plan))
                edges = enabled(plan.outputs, valuation)
                if edges:
                    bids.append((process, plan, edges))
                else:
                    idle.extend(plan.invariant)
            config = self.configs[key] = (
                self.network.location_vector_names(locs), bids, idle, rows)
        return config

    def step(self, state):
        """``(delay, description, new state)``, or ``None`` when the
        run ends."""
        locs, valuation, clocks = state
        _names, bids, idle, rows = self.config(locs, valuation)
        rng = self.rng
        inv_cap = min((bound - clocks[index] for index, bound in idle),
                      default=math.inf)
        best = first_committed = None
        for process, plan, edges in bids:
            inv = min((bound - clocks[index]
                       for index, bound in plan.invariant), default=math.inf)
            inv_cap = min(inv_cap, inv)
            if plan.instant:
                delay = 0.0
                if plan.committed and first_committed is None:
                    first_committed = (delay, process, edges)
            else:
                windows = []
                for edge in edges:
                    lo, hi = window(edge, clocks)
                    hi = min(hi, inv)
                    if lo <= hi:
                        windows.append((lo, hi, edge))
                if not windows:
                    continue
                lower = min(lo for lo, _hi, _edge in windows)
                if inv == math.inf:
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
            return None
        clocks = tuple(c + delay for c in clocks)
        participants = [(process, rng.choice(edges))]
        sync = participants[0][1].edge.sync
        if sync is not None:
            receivers = []
            for other, plan in rows:
                if other is process:
                    continue
                ready = []
                for edge in enabled(plan.receives.get(sync[0], ()),
                                    valuation):
                    lo, hi = window(edge, clocks)
                    if lo <= 0.0 <= hi:
                        ready.append(edge)
                if ready:
                    receivers.append((other, rng.choice(ready)))
            if self.network.channels[sync[0]].broadcast:
                participants.extend(receivers)
            elif not receivers:
                return (delay, None, (locs, valuation, clocks))
            else:
                participants.append(rng.choice(receivers))
        env = valuation.env()
        locs, clocks = list(locs), list(clocks)
        for proc, edge in participants:
            locs[proc.index] = edge.target
            for update in edge.edge.update:
                if callable(update):
                    update(env)
                else:
                    update.apply(env)
            for index, value in edge.resets:
                clocks[index] = value
        description = " || ".join(
            f"{p.name}:{e.edge.source}->{e.edge.target}"
            for p, e in participants)
        return (delay, description,
                (tuple(locs), env.commit(), tuple(clocks)))

    def run(self, max_time, observer=None, stop=None, max_steps=BUDGET):
        """The elapsed time of one run, as ``StochasticSimulator.run``."""
        state = self.initial()
        elapsed = 0.0
        for _ in range(max_steps):
            if elapsed > max_time:
                return elapsed
            names = self.config(state[0], state[1])[0]
            if observer is not None:
                observer(elapsed, names, state[1], state[2])
            if stop is not None and stop(elapsed, names, state[1],
                                         state[2]):
                return elapsed
            if elapsed >= max_time:
                return elapsed
            move = self.step(state)
            if move is None:
                return elapsed
            elapsed += move[0]
            state = move[2]
        raise AnalysisError(f"run exceeded {max_steps} steps")


# -- generated networks ----------------------------------------------------------

def bump(env):
    env["n"] = (env["n"] + 1) % 4


def clear(env):
    env["n"] = 0


UPDATES = {None: [], "bump": [bump], "clear": [clear]}
DATA_GUARDS = {None: None,
               "low": lambda valuation: valuation["n"] < 2,
               "odd": lambda valuation: valuation["n"] % 2 == 1}
SYNCS = [None, ("b", "!"), ("b", "?"), ("c", "!"), ("c", "?")]
RECEIVES = (("b", "?"), ("c", "?"))


@st.composite
def networks(draw):
    """A recipe for a small closed TA network: one to three processes
    ``P0``, ``P1``, ... with one clock ``x<i>`` each, locations ``L0``,
    ``L1``, ... of which all but ``L0`` may be urgent or committed and
    each may carry an invariant and a rate, and edges with a clock
    guard, a data guard on the shared ``n``, an update of ``n``, a
    clock reset, and a sync on the broadcast channel ``b`` or the
    binary channel ``c``.  Edges out of an urgent or committed location
    lead to a lower one, so zero-delay chains end in ``L0``; an edge
    may be copied with another target, so receivers and winners choose
    among several edges; a location without an edge that needs no
    sender gets an internal one that resets its clock, so that few runs
    end in a zero-delay loop at an invariant's bound.  Returns
    ``make``, which builds a fresh frozen network."""
    processes = []
    for _ in range(draw(st.integers(1, 3))):
        locations = [("plain" if j == 0 else draw(st.sampled_from(
                          ["plain", "plain", "urgent", "committed"])),
                      draw(st.sampled_from([None, 1, 2, 4])),
                      draw(st.sampled_from([None, 0.5, 2.0])))
                     for j in range(draw(st.integers(1, 3)))]

        def target(source):
            if locations[source][0] == "plain":
                return draw(st.integers(0, len(locations) - 1))
            return draw(st.integers(0, source - 1))

        edges = []
        for _ in range(draw(st.integers(1, 4))):
            source = draw(st.integers(0, len(locations) - 1))
            edges.append([
                source, target(source), draw(st.sampled_from(SYNCS)),
                draw(st.sampled_from([None, (">=", 1), (">", 2), ("<=", 1),
                                      ("<=", 3), ("==", 2)])),
                draw(st.sampled_from(list(DATA_GUARDS))),
                draw(st.sampled_from(list(UPDATES))),
                draw(st.sampled_from([True, True, False]))])
            if draw(st.booleans()):
                copy = list(edges[-1])
                copy[1] = target(source)
                edges.append(copy)
        for source in range(len(locations)):
            if all(edge[0] != source or edge[2] in RECEIVES
                   for edge in edges):
                # Every location may act on its own.
                edges.append([source, target(source), None, None, None,
                              None, True])
        processes.append((locations, edges))

    def make():
        decls = Declarations()
        decls.declare_int("n", 0, 0, 3)
        net = Network("generated")
        net.declarations = decls
        net.add_channel("b", broadcast=True)
        net.add_channel("c")
        for i, (locations, edges) in enumerate(processes):
            clock = f"x{i}"
            a = Automaton(f"A{i}", clocks=[clock])
            for j, (kind, bound, rate) in enumerate(locations):
                a.add_location(
                    f"L{j}",
                    invariant=[] if bound is None
                    else [clk(clock, "<=", bound)],
                    committed=kind == "committed", urgent=kind == "urgent",
                    rate=rate)
            for source, target, sync, guard, data, update, reset in edges:
                a.add_edge(
                    f"L{source}", f"L{target}",
                    guard=[] if guard is None else [clk(clock, *guard)],
                    data_guard=DATA_GUARDS[data], sync=sync,
                    update=UPDATES[update],
                    resets=[(clock, 0)] if reset else [])
            net.add_process(f"P{i}", a)
        return net.freeze()

    return make


#: ``None`` keeps the default table; a number renews it that often.
table_sizes = st.sampled_from([None, 1, 3])


def generated(make, maxsize):
    network = make()
    if maxsize is not None:
        # On this network's table only; not a parameter.
        config_plans(network).maxsize = maxsize
    return network


def outcome(call, *args, **kwargs):
    """``call(...)``, or the type and message of the error it raised."""
    try:
        return call(*args, **kwargs)
    except (AnalysisError, ModelError) as error:
        return type(error), str(error)


def linked_steps(network, seed, count):
    simulator = StochasticSimulator(network, rng=seed)
    state = simulator.initial()
    steps = []
    for _ in range(count):
        move = simulator.step(state)
        if move is None:
            break
        delay, description, state = move
        steps.append((delay, description, state.locs,
                      state.valuation.values, state.clocks))
    return steps


def keyed_steps(network, seed, count):
    simulator = KeyedSimulator(network, seed)
    state = simulator.initial()
    steps = []
    for _ in range(count):
        move = simulator.step(state)
        if move is None:
            break
        delay, description, state = move
        locs, valuation, clocks = state
        steps.append((delay, description, locs, valuation.values, clocks))
    return steps


def observed(simulator, max_time):
    """The states ``simulator.run`` observes and its elapsed time."""
    seen = []

    def observer(elapsed, names, valuation, clocks):
        seen.append((elapsed, names, valuation.values, clocks))

    return outcome(simulator.run, max_time, observer=observer,
                   max_steps=BUDGET), seen


def recorded_passage(simulator, predicates):
    """Hit times and ``smc.sim.steps`` of ``run`` watched by a recorder."""
    recorder = FirstPassageRecorder(predicates)
    with collecting() as collector:
        result = outcome(simulator.run, HORIZON, observer=recorder,
                         stop=recorder.all_seen, max_steps=BUDGET)
    if not isinstance(result, tuple):
        result = recorder.times
    return result, collector.value("smc.sim.steps")


def first_passage(network, seed, predicates):
    with collecting() as collector, \
            mock.patch.object(stochastic, "MAX_STEPS", BUDGET):
        result = outcome(StochasticSimulator(network, rng=seed)
                         .first_passage, predicates, HORIZON)
    return result, collector.value("smc.sim.steps")


def predicate(kind, value):
    """A pure state predicate of a generated network, whose process
    ``P0`` comes first and whose clock 1 is ``P0``'s ``x0``."""
    if kind == "loc":
        return lambda names, _valuation, _clocks: names[0] == f"L{value}"
    if kind == "n":
        return lambda _names, valuation, _clocks: valuation["n"] >= value
    return lambda _names, _valuation, clocks: clocks[1] >= 3 * value


def predicate_set(specs):
    return {f"{i}:{kind}{value}": predicate(kind, value)
            for i, (kind, value) in enumerate(specs)}


predicate_sets = st.lists(
    st.tuples(st.sampled_from(["loc", "n", "x"]), st.integers(0, 3)),
    max_size=3).map(predicate_set)


@settings(max_examples=80, deadline=None)
@given(networks(), table_sizes)
def test_step_follows_the_keyed_loop(make, maxsize):
    network = generated(make, maxsize)
    for seed in SEEDS:
        assert outcome(linked_steps, network, seed, 40) == \
            outcome(keyed_steps, network, seed, 40)


@settings(max_examples=80, deadline=None)
@given(networks(), table_sizes)
def test_run_follows_the_keyed_loop(make, maxsize):
    network = generated(make, maxsize)
    for seed in SEEDS:
        assert observed(StochasticSimulator(network, rng=seed), HORIZON) \
            == observed(KeyedSimulator(network, seed), HORIZON)


@settings(max_examples=80, deadline=None)
@given(networks(), table_sizes, predicate_sets)
def test_first_passage_equals_the_recorded_run(make, maxsize, predicates):
    network = generated(make, maxsize)
    for seed in SEEDS:
        linked = first_passage(network, seed, predicates)
        assert linked == recorded_passage(
            StochasticSimulator(network, rng=seed), predicates)
        assert linked[0] == recorded_passage(
            KeyedSimulator(network, seed), predicates)[0]


def live_configs():
    """Configuration plans allocated since the last collection and
    still alive; with the collector off, only reference counting frees
    them."""
    return sum(type(o) is ConfigPlan for o in gc.get_objects(generation=0))


def self_loop_network():
    """``P`` stays in ``s``, on one edge as it is and on the other
    bumping ``n``: every configuration links to itself."""
    decls = Declarations()
    decls.declare_int("n", 0, 0, 3)
    net = Network("loop")
    net.declarations = decls
    a = Automaton("P", clocks=[])
    a.add_location("s", rate=1.0)
    a.add_edge("s", "s")
    a.add_edge("s", "s", update=[bump])
    net.add_process("P", a)
    return net.freeze()


def test_dropped_generations_are_freed_without_the_collector():
    """A new generation unlinks the plans it drops, so reference
    counting alone frees their self-links, and a table renewed every
    two plans gives the unbounded table's runs."""
    expected = [observed(StochasticSimulator(self_loop_network(), rng=seed),
                         20) for seed in range(20)]
    network = self_loop_network()
    configs = config_plans(network)
    configs.maxsize = 2  # on this instance only; not a parameter
    gc.collect()
    gc.disable()
    try:
        runs = [observed(StochasticSimulator(network, rng=seed), 20)
                for seed in range(20)]
        live = live_configs()
    finally:
        gc.enable()
    assert runs == expected
    assert configs.generation > 0
    assert live <= configs.maxsize


def test_threads_sharing_a_network_take_the_keyed_runs():
    """More threads than cores walk one network's plans, renewed every
    16 plans, with a short switch interval; every thread's hit times
    are the keyed loop's."""
    predicates = {i: cross_predicate(i) for i in range(3)}
    network = make_traingate(3)
    config_plans(network).maxsize = 16
    expected = [keyed_hits(seed) for seed in range(6)]
    results = {}

    def walk(index):
        results[index] = [
            StochasticSimulator(network, rng=seed)
            .first_passage(predicates, 100) for seed in range(6)]

    threads = [threading.Thread(target=walk, args=(index,))
               for index in range((os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {index: expected for index in range(len(threads))}


def keyed_hits(seed):
    network = make_traingate(3)
    recorder = FirstPassageRecorder(
        {i: cross_predicate(i) for i in range(3)})
    KeyedSimulator(network, seed).run(100, observer=recorder,
                                      stop=recorder.all_seen,
                                      max_steps=100000)
    return recorder.times


def test_pooled_first_passage_equals_the_keyed_loop():
    seeds = seed_stream(7, 40)
    expected = [keyed_hits(seed) for seed in seed_stream(7, 40)]
    args = (partial(network_simulator, Spec(make_traingate, 3)),
            {i: Spec(cross_predicate, i) for i in range(3)}, 100)
    for executor in (SerialExecutor(),
                     ParallelExecutor(workers=2, mp_context=MP_START)):
        with executor:
            hits = [hit for batch in seeded_batches(
                        first_passage_batch, args, seeds, executor, size=10)
                    for hit in batch]
        assert hits == expected


# -- the first-passage recorder and the horizon contract ---------------------------

def test_recorder():
    rec = FirstPassageRecorder({"x": lambda names, v, c: names[0] == "t"})
    rec(0.0, ("s",), None, None)
    assert math.isinf(rec.times["x"])
    rec(3.5, ("t",), None, None)
    assert rec.times["x"] == 3.5
    rec(9.9, ("t",), None, None)
    assert rec.times["x"] == 3.5  # first passage only
    assert rec.all_seen()


def one_shot():
    """One edge enabled in x within [2, 5] under invariant x <= 5; a
    run of either simulator then ends in ``t``."""
    a = Automaton("A", clocks=["x"])
    a.add_location("s", invariant=[clk("x", "<=", 5)])
    a.add_location("t")
    a.add_edge("s", "t", guard=[clk("x", ">=", 2)])
    net = Network()
    net.add_process("P", a)
    return net.freeze()


AT_T = {"t": lambda names, _valuation, _clocks: names[0] == "t"}


@pytest.mark.parametrize("simulator", [
    lambda: StochasticSimulator(one_shot(), rng=3),
    lambda: DigitalSimulator(one_shot(), rng=3)],
    ids=["stochastic", "digital"])
def test_none_horizon_is_unbounded(simulator):
    unbounded = simulator().first_passage(AT_T, None)
    assert 2 <= unbounded["t"] <= 5
    assert unbounded == simulator().first_passage(AT_T, math.inf)


@pytest.mark.parametrize("simulator", [
    lambda: StochasticSimulator(one_shot(), rng=3),
    lambda: DigitalSimulator(one_shot(), rng=3)],
    ids=["stochastic", "digital"])
def test_nan_horizon_raises(simulator):
    with pytest.raises(AnalysisError, match="NaN"):
        simulator().first_passage(AT_T, math.nan)
    with pytest.raises(AnalysisError, match="NaN"):
        simulator().run(max_time=math.nan)


def test_nan_horizon_raises_before_any_run():
    with collecting() as collector:
        with pytest.raises(AnalysisError, match="NaN"):
            first_passage_cdfs(
                lambda rng: StochasticSimulator(one_shot(), rng=rng), AT_T,
                horizon=math.nan, runs=5, grid=[1.0])
    assert collector.value("smc.sim.runs") == 0
