"""Tests for the distributed BIP engine: conflict-freedom, soundness
w.r.t. the centralized semantics, and realized parallelism."""

import pytest

from repro.bip import (
    AtomicComponent,
    BIPSystem,
    Connector,
    DistributedEngine,
    explore_statespace,
)
from repro.models.dala import make_dala, safety_invariant


def independent_workers(n):
    """n components that each toggle independently: fully parallel."""
    system = BIPSystem("workers")
    for k in range(n):
        worker = AtomicComponent(f"W{k}", ports=["work"])
        worker.add_place("idle")
        worker.add_place("busy")
        worker.add_transition("work", "idle", "busy")
        worker.add_transition("work", "busy", "idle")
        system.add_component(worker)
        system.add_connector(Connector(f"c{k}", [(f"W{k}", "work")]))
    return system


class TestDistributedEngine:
    def test_batches_are_conflict_free(self):
        system = independent_workers(4)
        engine = DistributedEngine(system, rng=1)
        for _ in range(20):
            batch = engine.step()
            components = [c for i in batch for c in i.components()]
            assert len(components) == len(set(components))

    def test_full_parallelism_on_independent_components(self):
        system = independent_workers(6)
        engine = DistributedEngine(system, rng=2)
        engine.run(max_rounds=50)
        assert engine.parallelism == pytest.approx(6.0)

    def test_reaches_only_centralized_states(self):
        system = make_dala(with_controller=True, counter_bound=4)
        states, _deadlocks = explore_statespace(system, max_states=500000)
        reachable = {s.key() for s in states}
        engine = DistributedEngine(system, rng=3)
        seen = []
        engine.run(max_rounds=200, observer=lambda s: seen.append(s))
        for state in seen:
            assert state.key() in reachable

    def test_invariant_checked(self):
        from repro.core import AnalysisError

        system = independent_workers(2)
        engine = DistributedEngine(system, rng=4)
        with pytest.raises(AnalysisError):
            engine.run(max_rounds=10,
                       invariant=lambda s: s.places[0] == "idle")

    def test_dala_runs_safely_distributed(self):
        system = make_dala(with_controller=True, counter_bound=4)
        engine = DistributedEngine(system, rng=5)
        trace = engine.run(max_rounds=300, invariant=safety_invariant)
        assert len(trace.steps) >= 300  # at least one firing per round
        assert engine.parallelism >= 1.0

    def test_deadlock_reported(self):
        component = AtomicComponent("C", ports=["p"])
        component.add_place("s")
        component.add_place("end")
        component.add_transition("p", "s", "end")
        system = BIPSystem()
        system.add_component(component)
        system.add_connector(Connector("c", [("C", "p")]))
        engine = DistributedEngine(system, rng=6)
        trace = engine.run(max_rounds=10)
        assert trace.deadlocked
        assert len(trace.steps) == 1

    def test_reset(self):
        system = independent_workers(2)
        engine = DistributedEngine(system, rng=7)
        engine.run(max_rounds=5)
        engine.reset()
        assert engine.rounds == 0
        assert engine.state.places == ("idle", "idle")


def transfer_race():
    """``A.a`` has two guarded transitions, s->t0 when ``x == 0`` and
    s->t1 when ``x == 1``; ``B``'s connector sets ``A.x = 1``.  When a
    round fires ``cb`` first, ``ca``'s drawn instance (s->t0) is stale."""
    a = AtomicComponent("A", ports=["a"])
    for place in ("s", "t0", "t1"):
        a.add_place(place)
    a.declare_int("x", 0, 0, 1)
    a.add_transition("a", "s", "t0", guard=lambda env: env["x"] == 0)
    a.add_transition("a", "s", "t1", guard=lambda env: env["x"] == 1)
    b = AtomicComponent("B", ports=["b"])
    b.add_place("s")
    b.add_place("done")
    b.add_transition("b", "s", "done")
    system = BIPSystem("race")
    system.add_component(a)
    system.add_component(b)
    system.add_connector(Connector("ca", [("A", "a")]))
    system.add_connector(Connector(
        "cb", [("B", "b")],
        transfer=lambda envs: envs["A"].__setitem__("x", 1)))
    return system


class TestStaleMembers:
    @pytest.mark.parametrize("seed", range(40))
    def test_round_fires_only_still_enabled_transitions(self, seed):
        """A round fires each member only if the member, with the same
        transitions, is enabled where it fires, and returns only what
        it fired: the round is a run of centralised steps."""
        system = transfer_race()
        engine = DistributedEngine(system, rng=seed)
        fired = engine.step()
        state = system.initial_state()
        for interaction in fired:
            assert (interaction.connector, interaction.participants) in [
                (i.connector, i.participants)
                for i in system.enabled_interactions(state)]
            state = system.execute(state, interaction)
        assert state.key() == engine.state.key()
        assert len(fired) == len(engine.trace.steps)
