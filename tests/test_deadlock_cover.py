"""The deadlock query is decided inside the successor loop.

:class:`repro.mc.deadlock.DeadlockGoal` answers "no deadlock" as soon as
the past of one guard zone includes the state's zone, and only then
falls back to the federation subtraction of :func:`deadlocked_part`.
These tests hold it, state for state, to the oracle kept in
:mod:`repro.mc.reference`: a second fire loop per state collecting the
guard zones, then ``down`` and ``subtract``.
"""

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from test_tiga_arena import games

from repro.mc import Verifier, deadlocked_part, explore
from repro.mc import deadlock as deadlock_module
from repro.mc.deadlock import DeadlockGoal
from repro.mc.reference import reference_deadlocked_part, reference_has_deadlock
from repro.models.fischer import make_fischer
from repro.models.traingate import make_traingate
from repro.ta import Automaton, Network, ZoneGraph, clk


def _steps(trace):
    """A witness trace as comparable ``(transition, state key)`` rows."""
    if trace is None:
        return None
    return [(None if t is None else t.describe(), s.key()) for t, s in trace]


def _oracle_search(network):
    """``E<> deadlock`` with the oracle as the goal of a plain search."""
    graph = ZoneGraph(network, abstraction="k")
    return explore(graph, goal=lambda s: reference_has_deadlock(graph, s))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(games())
def test_fused_check_matches_the_oracle(make):
    """Per explored state, the one-loop verdict, the exact deadlocked
    part and the successors equal the oracle's; ``deadlock_free()``
    gives the oracle search's verdict, state count and witness."""
    network = make()
    graph = ZoneGraph(network, abstraction="k")
    goal = DeadlockGoal(graph)
    states = []
    explore(graph, on_state=states.append)
    for state in states:
        successors, deadlocked = goal.expand(state)
        assert deadlocked == goal(state) == reference_has_deadlock(graph,
                                                                   state)
        assert (deadlocked_part(graph, state)
                == reference_deadlocked_part(graph, state))
        assert ([(t.describe(), s.key()) for t, s in successors]
                == [(t.describe(), s.key())
                    for t, s in graph.successors(state)])

    fused = Verifier(network).deadlock_free()
    oracle = _oracle_search(network)
    assert fused.holds is not oracle.found
    assert fused.states_explored == oracle.states_explored
    assert _steps(fused.trace) == _steps(oracle.trace)


def test_the_strategy_draws_networks_that_deadlock():
    make = find(games(),
                lambda make: not Verifier(make()).deadlock_free().holds,
                settings=settings(max_examples=100, derandomize=True,
                                  database=None, phases=[Phase.generate]))
    assert _oracle_search(make()).found


def split_guards(strict):
    """A committed location whose zone ``x ∈ [0, 4]`` two guards split:
    ``x <= 2`` and ``x >= 2``, or with ``strict`` ``x < 2`` and
    ``x > 2``, which leave the point ``x = 2`` deadlocked.  No single
    guard zone covers the zone, since the location forbids delay."""
    a = Automaton("P", clocks=["x"])
    a.add_location("wait", invariant=[clk("x", "<=", 4)])
    a.add_location("choose", committed=True)
    a.add_location("low")
    a.add_location("high")
    a.initial_location = "wait"
    a.add_edge("wait", "choose")
    a.add_edge("choose", "low", guard=[clk("x", "<" if strict else "<=", 2)])
    a.add_edge("choose", "high", guard=[clk("x", ">" if strict else ">=", 2)])
    for target in ("low", "high"):
        a.add_edge(target, "wait", resets=[("x", 0)])
    network = Network("split-guards")
    network.add_process("P", a)
    return network.freeze()


@pytest.mark.parametrize("strict", [False, True])
def test_federation_fallback_decides_split_guards(strict, monkeypatch):
    fallbacks = []
    exact = deadlock_module.deadlocked_part

    def spy(graph, state):
        part = exact(graph, state)
        fallbacks.append((state.locs, part.is_empty()))
        return part

    monkeypatch.setattr(deadlock_module, "deadlocked_part", spy)
    network = split_guards(strict)
    result = Verifier(network).deadlock_free()

    choose = (network.processes[0].location_index["choose"],)
    # Only the committed state falls back, and the fallback's
    # federation subtraction decides the verdict.
    assert fallbacks == [(choose, not strict)]
    assert result.holds is not strict
    if strict:
        assert result.witness.locs == choose
        assert deadlocked_part(ZoneGraph(network, abstraction="k"),
                               result.witness).contains_point((2,))
    oracle = _oracle_search(network)
    assert result.holds is not oracle.found
    assert result.states_explored == oracle.states_explored


@pytest.mark.parametrize("network", [make_traingate(3), make_fischer(3, 2)],
                         ids=["traingate-3", "fischer-3"])
def test_one_guard_zone_covers_every_bundled_state(network, monkeypatch):
    """On the bundled models the cover test decides every state, so the
    deadlock query never pays for the federation subtraction."""
    calls = []
    monkeypatch.setattr(deadlock_module, "deadlocked_part",
                        lambda graph, state: calls.append(state))
    assert Verifier(network).deadlock_free().holds
    assert calls == []
