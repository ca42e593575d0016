"""The one-pass BIP interaction enumeration against the two-pass one.

:meth:`repro.bip.BIPSystem.enumerate_interactions` walks every connector
once per state, calls each connector guard once on one shared context,
and leaves priorities to :meth:`~repro.bip.BIPSystem.filter_priorities`.
The oracle (``doubles.two_pass_interactions``) is the enumeration it
replaced: each connector's instances built on their own, the guard asked
per instance on a fresh context, then a second filtering pass.  On
generated flat systems with data guards, rendezvous and broadcast
connectors, connector guards, transfers and conditional priorities, both
must give the same interactions in the same order from every reachable
state, and :class:`~repro.bip.BIPEngine` must run the oracle engine's
traces, blocked counts and deadlock flags under fault injection.  Every
:class:`~repro.bip.DistributedEngine` round must linearise into
centralised steps.
"""

from doubles import TwoPassEngine, two_pass_interactions
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bip_distributed import independent_workers

from repro.bip import (
    AtomicComponent,
    BIPEngine,
    BIPSystem,
    Connector,
    DistributedEngine,
    explore_statespace,
)
from repro.models.dala import comm_request_fault, make_dala

PORTS = ("p", "q")
VALUES = (0, 1, 2)
SEEDS = (0, 1, 2)
STEPS = 30


def _x_is(k):
    return lambda env: env["x"] == k


def _x_is_not(k):
    return lambda env: env["x"] != k


def _set_x(k):
    return lambda env: env.__setitem__("x", k)


def _ctx_x_at_most(name, k):
    return lambda ctx: ctx[name]["x"] <= k


def _transfer(name, k):
    return lambda envs: envs[name].__setitem__("x", k)


data_guards = st.none() | st.builds(_x_is, st.sampled_from(VALUES)) \
    | st.builds(_x_is_not, st.sampled_from(VALUES))
updates = st.none() | st.builds(_set_x, st.sampled_from(VALUES))


@st.composite
def systems(draw):
    """A flat system of 2-4 components, each with 1-3 places, an
    ``x`` in 0..2 and guarded transitions on ports ``p``/``q``; 1-4
    connectors over distinct components, some broadcast, guarded or
    with a transfer; up to 3 priority rules, some conditional."""
    system = BIPSystem("generated")
    for k in range(draw(st.integers(2, 4))):
        component = AtomicComponent(f"C{k}", ports=PORTS)
        places = [f"s{j}" for j in range(draw(st.integers(1, 2)))]
        for place in places:
            component.add_place(place)
        component.declare_int("x", draw(st.sampled_from(VALUES)), 0, 2)
        for _ in range(draw(st.integers(1, 5))):
            component.add_transition(
                draw(st.sampled_from(PORTS)), draw(st.sampled_from(places)),
                draw(st.sampled_from(places)), guard=draw(data_guards),
                update=draw(updates))
        system.add_component(component)
    names = [c.name for c in system.components]
    ctx_guards = st.none() | st.builds(
        _ctx_x_at_most, st.sampled_from(names), st.sampled_from(VALUES))
    transfers = st.none() | st.builds(
        _transfer, st.sampled_from(names), st.sampled_from(VALUES))
    for j in range(draw(st.integers(1, 6))):
        members = draw(st.lists(st.sampled_from(names), min_size=1,
                                max_size=3, unique=True))
        endpoints = [(name, draw(st.sampled_from(PORTS)))
                     for name in members]
        trigger = draw(st.none() | st.sampled_from(endpoints))
        system.add_connector(Connector(
            f"c{j}", endpoints, trigger=trigger, guard=draw(ctx_guards),
            transfer=draw(transfers)))
    connectors = [c.name for c in system.connectors]
    if len(connectors) > 1:
        for _ in range(draw(st.integers(0, 3))):
            low, high = draw(st.lists(st.sampled_from(connectors),
                                      min_size=2, max_size=2, unique=True))
            system.add_priority(low, high, condition=draw(ctx_guards))
    return system


#: Fault schedules: step index -> (component, place), both taken
#: modulo what the system has.
schedules = st.dictionaries(st.integers(0, STEPS - 1),
                            st.tuples(st.integers(0, 3), st.integers(0, 2)),
                            max_size=6)


def injector(schedule):
    def inject(engine, step_index):
        if step_index in schedule:
            k, j = schedule[step_index]
            components = engine.system.components
            component = components[k % len(components)]
            engine.inject_place(component.name,
                                component.places[j % len(component.places)])
    return inject


def signature(interactions):
    return [(i.connector, i.participants) for i in interactions]


@settings(max_examples=60, deadline=None)
@given(systems())
def test_same_interactions_from_every_reachable_state(system):
    states, _deadlocks = explore_statespace(system)
    for state in states:
        unfiltered, filtered = two_pass_interactions(system, state)
        enumerated = system.enumerate_interactions(state)
        assert signature(enumerated) == signature(unfiltered)
        assert signature(system.filter_priorities(state, enumerated)) == \
            signature(filtered)
        assert signature(system.enabled_interactions(state)) == \
            signature(filtered)


@settings(max_examples=60, deadline=None)
@given(systems(), schedules)
def test_engine_runs_match_the_two_pass_engine(system, schedule):
    for seed in SEEDS:
        engine = BIPEngine(system, rng=seed)
        oracle = TwoPassEngine(system, rng=seed)
        trace = engine.run(max_steps=STEPS, fault_injector=injector(schedule))
        expected = oracle.run(max_steps=STEPS,
                              fault_injector=injector(schedule))
        assert trace.steps == expected.steps
        assert trace.blocked_count == expected.blocked_count
        assert trace.deadlocked == expected.deadlocked
        assert engine.state.key() == oracle.state.key()


@settings(max_examples=100, deadline=None)
@given(systems())
def test_distributed_rounds_linearise(system):
    """Replaying a round's fired interactions one centralised step at a
    time finds each enabled, with the same transitions, and ends in the
    round's state."""
    for seed in SEEDS:
        engine = DistributedEngine(system, rng=seed)
        for _ in range(20):
            state = engine.state
            fired = engine.step()
            for interaction in fired:
                assert signature([interaction])[0] in signature(
                    system.enabled_interactions(state))
                state = system.execute(state, interaction)
            assert state.key() == engine.state.key()
            if not fired:
                break


def counting_enumerations(system):
    """Count ``system.enumerate_interactions`` calls in ``calls[0]``."""
    calls = [0]
    enumerate_interactions = system.enumerate_interactions

    def counted(state):
        calls[0] += 1
        return enumerate_interactions(state)

    system.enumerate_interactions = counted
    return calls


def test_one_enumeration_per_engine_step():
    system = make_dala(with_controller=True, counter_bound=4)
    system.add_maximal_progress()
    calls = counting_enumerations(system)
    trace = BIPEngine(system, rng=3).run(
        max_steps=100, fault_injector=comm_request_fault)
    assert (len(trace), calls[0]) == (100, 100)


def test_one_enumeration_per_distributed_member_after_the_first():
    """Four independent workers: every round fires all four, after the
    round's enumeration and one before each of the three later ones."""
    system = independent_workers(4)
    calls = counting_enumerations(system)
    engine = DistributedEngine(system, rng=5)
    for _ in range(10):
        before = calls[0]
        assert len(engine.step()) == 4
        assert calls[0] - before == 4
