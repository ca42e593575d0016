"""Tests for the DALA rover case study (the paper's Section IV
experiment: verified controller + fault injection)."""

import pytest

from repro.bip import (
    BIPEngine,
    explore_statespace,
    find_potential_deadlocks,
)
from repro.core import AnalysisError
from repro.models.dala import (
    comm_request_fault,
    make_dala,
    safety_invariant,
    unsafe,
)
from repro.obs import Collector, collecting


@pytest.fixture(scope="module")
def controlled():
    return make_dala(with_controller=True, counter_bound=2)


@pytest.fixture(scope="module")
def uncontrolled():
    return make_dala(with_controller=False, counter_bound=2)


class TestStructure:
    def test_flattened_names(self, controlled):
        names = [c.name for c in controlled.components]
        assert "functional/NDD" in names
        assert "functional/RFLEX" in names
        assert "R2C" in names

    def test_controller_optional(self, uncontrolled):
        names = [c.name for c in uncontrolled.components]
        assert "R2C" not in names


class TestVerification:
    def test_dfinder_proves_deadlock_freedom(self, controlled):
        report = find_potential_deadlocks(controlled)
        assert report.deadlock_free

    def test_exact_exploration_agrees(self, controlled):
        states, deadlocks = explore_statespace(controlled)
        assert deadlocks == []
        assert len(states) > 10

    def test_safety_holds_with_controller(self, controlled):
        states, _deadlocks = explore_statespace(controlled)
        assert not any(unsafe(s) for s in states)

    def test_safety_violated_without_controller(self, uncontrolled):
        states, _deadlocks = explore_statespace(uncontrolled)
        assert any(unsafe(s) for s in states)


class TestFaultInjection:
    def test_controller_blocks_faulty_requests(self, controlled):
        """With R2C, 500 fault-injected steps never reach an unsafe
        state (the paper's experiment outcome)."""
        engine = BIPEngine(controlled, rng=11)
        trace = engine.run(max_steps=500, invariant=safety_invariant,
                           fault_injector=comm_request_fault)
        assert len(trace) == 500
        assert not trace.deadlocked

    def test_unprotected_system_reaches_unsafe_state(self, uncontrolled):
        violations = 0
        for seed in range(10):
            engine = BIPEngine(uncontrolled, rng=seed)
            try:
                engine.run(max_steps=200, invariant=safety_invariant,
                           fault_injector=comm_request_fault)
            except AnalysisError:
                violations += 1
        assert violations == 10

    def test_priorities_steer_scheduling(self, controlled):
        """DALA's two release-over-grant rules never find their high
        connector enabled with their low one, so they block nothing;
        maximal progress blocks interactions in 60 of the 64 states."""
        trace = BIPEngine(controlled, rng=13).run(max_steps=300)
        assert (len(trace), trace.blocked_count) == (300, 0)
        system = make_dala(with_controller=True, counter_bound=2)
        system.add_maximal_progress()
        states, _deadlocks = explore_statespace(system)
        blocking = [s for s in states
                    if len(system.enabled_interactions(s))
                    < len(system.enumerate_interactions(s))]
        assert (len(states), len(blocking)) == (64, 60)
        trace = BIPEngine(system, rng=13).run(max_steps=300)
        assert (len(trace), trace.blocked_count) == (300, 899)

    def test_rover_keeps_working_under_faults(self, controlled):
        """Liveness-ish: missions still complete despite fault storms."""
        engine = BIPEngine(controlled, rng=17)
        engine.run(max_steps=2000, fault_injector=comm_request_fault)
        index = engine.system.component_index("functional/RFLEX")
        assert engine.state.valuations[index]["missions"] >= 1 or any(
            "c_halt" in step for step in engine.trace.steps)


class TestExperimentCounters:
    """E6 as ``benchmarks/bench_dala_bip.py`` runs it (counter bound 4,
    50 fault-injected runs of 300 steps per configuration), pinned."""

    @staticmethod
    def fault_runs(system):
        collector = Collector("e6")
        violations = 0
        with collecting(collector):
            for seed in range(50):
                try:
                    BIPEngine(system, rng=seed).run(
                        max_steps=300, invariant=safety_invariant,
                        fault_injector=comm_request_fault)
                except AnalysisError:
                    violations += 1
        return violations, collector.snapshot()["counters"]

    def test_e6_fault_campaign(self):
        with_r2c, counters = self.fault_runs(
            make_dala(with_controller=True, counter_bound=4))
        without_r2c, more = self.fault_runs(
            make_dala(with_controller=False, counter_bound=4))
        assert (with_r2c, without_r2c) == (0, 50)
        totals = {name: counters.get(name, 0) + more.get(name, 0)
                  for name in ("bip.runs", "bip.steps", "bip.blocked",
                               "bip.deadlocks")}
        assert totals == {"bip.runs": 100, "bip.steps": 15000 + 461,
                          "bip.blocked": 0, "bip.deadlocks": 0}

    def test_maximal_progress_blocks(self):
        system = make_dala(with_controller=True, counter_bound=4)
        system.add_maximal_progress()
        trace = BIPEngine(system, rng=3).run(max_steps=400)
        assert (len(trace), trace.blocked_count) == (400, 1199)
        violations, counters = self.fault_runs(system)
        assert violations == 0
        assert (counters["bip.steps"], counters["bip.blocked"]) == \
            (15000, 32611)
