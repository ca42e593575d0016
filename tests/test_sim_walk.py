"""The modes simulator's linked walk against the walk it replaced.

:class:`repro.pta.DigitalSimulator` moves from step plan to step plan
through links and reads first-passage verdicts from a per-plan memo.
The oracle here is the loop without either: it looks every state's
step data up by key on every step, straight from
:meth:`~repro.ta.discrete.DiscreteSemantics.expand`, and draws its moves
in the documented order.  On generated PTA networks with probabilistic
branches and free-running clocks (the strategy of
``tests/test_digital_unfold.py``), with the plan table unbounded or
renewed every few plans, ``run`` must give the oracle's trace, final
state and steps, and ``first_passage`` the hit times and step count of
``run`` watched by a :class:`doubles.FirstPassageRecorder`.

The pool test honours ``REPRO_MP_START`` (``fork`` / ``spawn``); under
spawn every worker rebuilds the model, its plan table and its masks.
"""

import os
import sys
import threading
from bisect import bisect_right
from functools import partial
from math import inf
from unittest import mock

from doubles import FirstPassageRecorder
from hypothesis import given, settings
from hypothesis import strategies as st
from test_digital_unfold import networks

from repro.core import AnalysisError, ModelError
from repro.core.rng import ensure_rng
from repro.models import brp
from repro.modest.toolset import modes_simulator
from repro.obs import collecting
from repro.pta import DigitalSimulator, digital_semantics, simulate
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    Spec,
    seed_stream,
    seeded_batches,
)
from repro.smc.cdf import first_passage_batch
from repro.ta.discrete import DiscreteState

MP_START = os.environ.get("REPRO_MP_START") or None

POLICIES = ("max-delay", "min-delay", "uniform")
SEEDS = (1, 2, 3)
HORIZON = 12
#: Generated networks often loop on zero-time actions once every clock
#: is saturated, so runs here get a small step budget.
BUDGET = 300


class KeyedPlan:
    """A state's step data as the simulator kept it before links: the
    location names, the enabled actions as ``(transition, cumulative
    branch probabilities, successor states)`` and the tick successor
    state (``None`` when time may not pass or every clock is
    saturated)."""

    def __init__(self, semantics, state):
        locs, valuation = state.locs, state.valuation
        fires, ticked = semantics.expand(
            semantics.config_for(locs, valuation), state.clocks)
        self.names = semantics.network.location_vector_names(locs)
        self.actions = []
        for fire, outcomes in fires:
            cumulative, acc = [], 0.0
            for probability, *_successor in outcomes:
                acc += probability
                cumulative.append(acc)
            cumulative[-1] = inf
            self.actions.append((fire.transition, cumulative, [
                DiscreteState(locs2, valuation2, clocks2)
                for _p, locs2, valuation2, clocks2 in outcomes]))
        self.tick = (None if ticked is None or ticked == state.clocks
                     else DiscreteState(locs, valuation, ticked))


def keyed_run(network, policy, seed, max_time, max_steps):
    """The oracle: ``(trace, final state key, steps, elapsed)`` of the
    run ``DigitalSimulator(network, policy, seed)`` takes."""
    semantics = digital_semantics(network)
    rng = ensure_rng(seed)
    plans = {}
    state = semantics.initial()
    elapsed = 0
    trace = []
    for steps in range(max_steps):
        plan = plans.get(state.key())
        if plan is None:
            plan = plans[state.key()] = KeyedPlan(semantics, state)
        if elapsed >= max_time:
            break
        actions = plan.actions
        if plan.tick is not None and (
                not actions or policy == "max-delay"
                or (policy == "uniform"
                    and rng.randint(0, len(actions)) == 0)):
            kind, state, dt = "tick", plan.tick, 1
        elif not actions:
            break
        else:
            kind, cumulative, successors = rng.choice(actions)
            state = successors[bisect_right(cumulative, rng.random())]
            dt = 0
        elapsed += dt
        trace.append((kind, elapsed))
    else:
        raise AnalysisError(f"run exceeded {max_steps} steps")
    return trace, state.key(), steps, elapsed


def linked_run(network, policy, seed, max_time, max_steps):
    run = DigitalSimulator(network, policy=policy, rng=seed).run(
        max_time=max_time, max_steps=max_steps, record_trace=True)
    return run.trace, run.final_state.key(), run.steps, run.elapsed


def outcome(call, *args, **kwargs):
    """``call(...)``, or the type and message of the error it raised."""
    try:
        return call(*args, **kwargs)
    except (AnalysisError, ModelError) as error:
        return type(error), str(error)


def recorded_passage(network, policy, seed, predicates):
    """Hit times and ``pta.sim.steps`` of ``run`` watched by a recorder."""
    recorder = FirstPassageRecorder(predicates)
    with collecting() as collector:
        result = outcome(
            DigitalSimulator(network, policy=policy, rng=seed).run,
            max_time=HORIZON, max_steps=BUDGET, observer=recorder,
            stop=recorder.all_seen)
    if isinstance(result, simulate.SimulationRun):
        result = recorder.times
    return result, collector.value("pta.sim.steps")


def first_passage(network, policy, seed, predicates):
    with collecting() as collector, \
            mock.patch.object(simulate, "MAX_STEPS", BUDGET):
        result = outcome(
            DigitalSimulator(network, policy=policy, rng=seed)
            .first_passage, predicates, HORIZON)
    return result, collector.value("pta.sim.steps")


def predicate(kind, value):
    """A pure state predicate of a generated network, whose process
    ``P`` comes first and whose clock 1 is ``P``'s ``x``."""
    if kind == "loc":
        return lambda names, _valuation, _clocks: names[0] == f"L{value}"
    if kind == "n":
        return lambda _names, valuation, _clocks: valuation["n"] >= value
    return lambda _names, _valuation, clocks: clocks[1] >= value


def predicate_set(specs):
    return {f"{i}:{kind}{value}": predicate(kind, value)
            for i, (kind, value) in enumerate(specs)}


predicate_sets = st.lists(
    st.tuples(st.sampled_from(["loc", "n", "x"]), st.integers(0, 3)),
    max_size=3).map(predicate_set)

#: ``None`` keeps the default table; a number renews it that often.
table_sizes = st.sampled_from([None, 1, 3])


def generated(case, maxsize):
    network = case[0]()
    if maxsize is not None:
        # On this network's table only; not a parameter.
        digital_semantics(network).step_plans.maxsize = maxsize
    return network


@settings(max_examples=80, deadline=None)
@given(networks(), table_sizes)
def test_run_follows_the_keyed_walk(case, maxsize):
    network = generated(case, maxsize)
    for policy in POLICIES:
        for seed in SEEDS:
            args = (network, policy, seed, HORIZON, BUDGET)
            assert outcome(linked_run, *args) == outcome(keyed_run, *args)


@settings(max_examples=80, deadline=None)
@given(networks(), table_sizes, predicate_sets, predicate_sets)
def test_first_passage_equals_the_recorded_run(case, maxsize, first,
                                               second):
    """Two predicate sets take turns on one network, so each reads
    plans whose memo the other wrote."""
    network = generated(case, maxsize)
    for policy in POLICIES:
        for seed in SEEDS:
            for predicates in (first, second):
                args = (network, policy, seed, predicates)
                assert first_passage(*args) == recorded_passage(*args)


BRP_PREDICATES = {"TA1": brp.premature_timeout, "P1": brp.not_success,
                  "P2": brp.uncertainty, "Emax": brp.reported}


def negation(predicates):
    return {key: (lambda p: lambda *state: not p(*state))(p)
            for key, p in predicates.items()}


def recorded_times(network, seed, predicates, horizon):
    recorder = FirstPassageRecorder(predicates)
    DigitalSimulator(network, rng=seed).run(
        max_time=horizon, observer=recorder, stop=recorder.all_seen)
    return recorder.times


def test_first_passage_reads_the_memo_of_its_own_predicates():
    """On BRP, the Table I predicates and their negations alternate on
    one shared table; each run's hit times are the recorder's."""
    network = brp.make_brp(2, 2, 1)
    for seed in range(6):
        for predicates in (BRP_PREDICATES, negation(BRP_PREDICATES)):
            assert DigitalSimulator(network, rng=seed).first_passage(
                predicates, 60) == recorded_times(network, seed,
                                                  predicates, 60)


def test_threads_sharing_a_network_read_their_own_verdicts():
    """More threads than cores walk one network, half watching the
    Table I predicates and half their negations, on a table renewed
    every 16 plans; every run gets the recorder's hit times."""
    network = brp.make_brp(2, 2, 1)
    digital_semantics(network).step_plans.maxsize = 16
    watched = [BRP_PREDICATES, negation(BRP_PREDICATES)]
    expected = [[recorded_times(network, seed, predicates, 60)
                 for seed in range(6)] for predicates in watched]
    results = {}

    def walk(index):
        predicates = watched[index % 2]
        results[index] = [
            DigitalSimulator(network, rng=seed).first_passage(predicates, 60)
            for seed in range(6)]

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
    assert results == {index: expected[index % 2]
                       for index in range(len(threads))}


def pooled_hits(executor):
    args = (partial(modes_simulator, Spec(brp.make_brp, 4, 2, 1),
                    "uniform"), BRP_PREDICATES, 100)
    with collecting() as collector:
        hits = [hit for batch in seeded_batches(
                    first_passage_batch, args, seed_stream(11, 60),
                    executor, size=10)
                for hit in batch]
    return hits, collector.value("pta.sim.steps")


def test_pooled_first_passage_equals_serial():
    serial = pooled_hits(SerialExecutor())
    assert any(hit["Emax"] != inf for hit in serial[0])
    with ParallelExecutor(workers=2, mp_context=MP_START) as executor:
        assert pooled_hits(executor) == serial
