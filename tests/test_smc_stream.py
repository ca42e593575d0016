"""The stochastic race semantics (:mod:`repro.smc.stochastic`): its
random stream, its per-location and per-configuration plans, and the
constraints it rejects.

The golden values pin the stream: a seed must give the same delays,
the same transitions and the same Fig. 4 CDFs digit for digit, in a
single process and across a worker pool.  The pool tests honour
``REPRO_MP_START`` (``fork`` / ``spawn``); under spawn every worker
rebuilds the model from its ``Spec`` and compiles its own plans, per
location and per configuration.
"""

import hashlib
import json
import math
import os
from functools import partial

import pytest

from repro.core import AnalysisError, EvaluationError, ModelError
from repro.core.memo import PlanTable
from repro.core.values import Declarations
from repro.models.traingate import cross_predicate, make_traingate
from repro.obs import collecting
from repro.runtime import ParallelExecutor, Spec
from repro.smc import StochasticSimulator, first_passage_cdfs
from repro.smc import stochastic
from repro.smc.cdf import first_passage_batch
from repro.smc.stochastic import (
    config_plans,
    location_plans,
    network_simulator,
)
from repro.ta import Automaton, Network, clk

MP_START = os.environ.get("REPRO_MP_START") or None


def bump(env):
    env["n"] = (env["n"] + 1) % 4


def broadcast_network():
    """A sender racing two receivers over a broadcast and a binary
    channel: exponential and uniform delays, a committed and an urgent
    location, data guards, and receivers with several candidate edges."""
    decls = Declarations()
    decls.declare_int("n", 0, 0, 3)
    net = Network("bcast")
    net.declarations = decls
    net.add_channel("alarm", broadcast=True)
    net.add_channel("ack")
    s = Automaton("S", clocks=["x"])
    s.add_location("idle", rate=0.5)
    s.add_location("warn", invariant=[clk("x", "<=", 2)])
    s.add_location("done", committed=True)
    s.add_edge("idle", "warn", guard=[clk("x", ">=", 1)],
               sync=("alarm", "!"), resets=[("x", 0)])
    s.add_edge("warn", "done", guard=[clk("x", ">", 1)], update=[bump])
    s.add_edge("done", "idle", sync=("ack", "!"), resets=[("x", 0)])
    net.add_process("S", s)
    for i in range(2):
        r = Automaton(f"R{i}", clocks=["y"])
        r.add_location("off")
        r.add_location("on", invariant=[clk("y", "<=", 3 + i)])
        r.add_location("hold", urgent=True)
        r.add_edge("off", "on", sync=("alarm", "?"), resets=[("y", 0)])
        r.add_edge("off", "off", sync=("alarm", "?"),
                   data_guard=lambda env: env["n"] < 2)
        r.add_edge("on", "off", guard=[clk("y", ">=", 1)])
        r.add_edge("on", "hold", sync=("ack", "?"),
                   guard=[clk("y", "<=", 2)])
        r.add_edge("off", "off", sync=("ack", "?"))
        r.add_edge("hold", "off")
        net.add_process(f"R{i}", r)
    return net.freeze()


#: The first 50 ``(delay, description)`` steps of ``broadcast_network``
#: from seed 2012.
GOLDEN_STEPS = [
    (1.20275022265401, 'S:idle->warn || R0:off->on || R1:off->off'),
    (1.5841047988072976, 'S:warn->done'),
    (0.0, 'S:done->idle || R0:on->hold'),
    (0.0, 'R0:hold->off'),
    (4.931376110326019, 'S:idle->warn || R0:off->off || R1:off->off'),
    (1.5681742526008406, 'S:warn->done'),
    (0.0, 'S:done->idle || R0:off->off'),
    (2.0846592171907403, 'S:idle->warn || R0:off->on || R1:off->on'),
    (1.3542204063045338, 'S:warn->done'),
    (0.0, 'S:done->idle || R0:on->hold'),
    (0.0, 'R0:hold->off'),
    (1.2025660111699412, 'R1:on->off'),
    (2.327661394689188, 'S:idle->warn || R0:off->on || R1:off->on'),
    (1.2995201929527405, 'R0:on->off'),
    (0.09285824943922433, 'S:warn->done'),
    (0.0, 'S:done->idle || R0:off->off'),
    (1.635095039093184, 'R1:on->off'),
    (2.4588681596716238, 'S:idle->warn || R0:off->on || R1:off->on'),
    (1.2394002062937957, 'S:warn->done'),
    (0.0, 'S:done->idle || R1:on->hold'),
    (0.0, 'R1:hold->off'),
    (0.08777536893234346, 'R0:on->off'),
    (5.879763988204374, 'S:idle->warn || R0:off->on || R1:off->on'),
    (1.2695230968667506, 'S:warn->done'),
    (0.0, 'S:done->idle || R1:on->hold'),
    (0.0, 'R1:hold->off'),
    (1.223687924657716, 'R0:on->off'),
    (1.432563153200606, 'S:idle->warn || R0:off->on || R1:off->on'),
    (1.3215517025124888, 'R0:on->off'),
    (0.2913351537182822, 'S:warn->done'),
    (0.0, 'S:done->idle || R1:on->hold'),
    (0.0, 'R1:hold->off'),
    (3.033735687511916, 'S:idle->warn || R0:off->on || R1:off->on'),
    (1.1891411779295693, 'R1:on->off'),
    (0.10581842452206804, 'S:warn->done'),
    (0.0, 'S:done->idle || R1:off->off'),
    (1.2698377338941325, 'R0:on->off'),
    (0.05023333186372447, 'S:idle->warn || R0:off->on || R1:off->on'),
    (1.02014327417147, 'S:warn->done'),
    (0.0, 'S:done->idle || R0:on->hold'),
    (0.0, 'R0:hold->off'),
    (1.0907135840231912, 'S:idle->warn || R0:off->off'),
    (1.3300773557156116, 'R1:on->off'),
    (0.09065311250601836, 'S:warn->done'),
    (0.0, 'S:done->idle || R1:off->off'),
    (1.4984259599520875, 'S:idle->warn || R0:off->on || R1:off->on'),
    (1.0452138750212259, 'R0:on->off'),
    (0.31042119616433256, 'S:warn->done'),
    (0.0, 'S:done->idle || R0:off->off'),
    (1.1802698324876586, 'S:idle->warn || R0:off->on'),
]

#: sha256 of the JSON-encoded Fig. 4 CDFs (six trains, 200 runs, seed
#: 2012) and the number of simulation steps those runs take.
GOLDEN_CDF_SHA256 = (
    "f669ce4a07f2715848ff0567013017e66245c2aae5f0af58e2866ab679bd24cc")
GOLDEN_CDF_STEPS = 11106


def fig4_cdfs(executor=None, runs=200):
    """The Fig. 4 CDFs at seed 2012 with their digest and step count."""
    with collecting() as collector:
        cdfs = first_passage_cdfs(
            partial(network_simulator, Spec(make_traingate, 6)),
            {i: Spec(cross_predicate, i) for i in range(6)},
            horizon=100, runs=runs, grid=list(range(10, 95, 12)),
            rng=2012, executor=executor)
    digest = hashlib.sha256(
        json.dumps(cdfs, sort_keys=True).encode()).hexdigest()
    return (digest, collector.value("smc.sim.steps"),
            collector.value("smc.sim.runs"))


class TestGoldenStream:
    def test_first_steps_of_broadcast_network(self):
        simulator = StochasticSimulator(broadcast_network(), rng=2012)
        state = simulator.initial()
        steps = []
        for _ in GOLDEN_STEPS:
            delay, description, state = simulator.step(state)
            steps.append((delay, description))
        assert steps == GOLDEN_STEPS

    def test_run_follows_the_step_stream(self):
        """``run`` takes the same steps as repeated ``step`` calls."""
        seen = []
        simulator = StochasticSimulator(broadcast_network(), rng=2012)
        simulator.run(max_time=math.inf,
                      observer=lambda t, names, v, c: seen.append(t),
                      stop=lambda t, n, v, c: len(seen) > len(GOLDEN_STEPS))
        elapsed = 0.0
        expected = [elapsed]
        for delay, _description in GOLDEN_STEPS:
            elapsed += delay
            expected.append(elapsed)
        assert seen == expected

    def test_fig4_cdfs_serial(self):
        assert fig4_cdfs() == (GOLDEN_CDF_SHA256, GOLDEN_CDF_STEPS, 200)

    def test_fig4_cdfs_parallel_equal_serial(self):
        with ParallelExecutor(workers=2, mp_context=MP_START) as executor:
            parallel = fig4_cdfs(executor)
        assert parallel == (GOLDEN_CDF_SHA256, GOLDEN_CDF_STEPS, 200)


class TestLocationPlans:
    def test_built_once_and_shared_by_a_batch(self, monkeypatch):
        built = []

        class CountingPlan(stochastic.LocationPlan):
            __slots__ = ()

            def __init__(self, process, loc_index):
                built.append((process.index, loc_index))
                super().__init__(process, loc_index)

        monkeypatch.setattr(stochastic, "LocationPlan", CountingPlan)
        network = make_traingate(3)
        simulators = []

        def factory(rng):
            simulators.append(StochasticSimulator(network, rng=rng))
            return simulators[-1]

        first_passage_batch(
            factory, {i: cross_predicate(i) for i in range(3)},
            horizon=100, seeds=range(20))
        plans = location_plans(network)
        assert all(sim._plans is plans for sim in simulators)
        assert len(built) == len(set(built))
        assert sorted(built) == sorted(
            (p, li) for p, row in enumerate(plans)
            for li, plan in enumerate(row) if plan is not None)
        assert len(built) > len(network.processes)

    def test_unknown_clock_raises(self):
        a = Automaton("A", clocks=["x"])
        a.add_location("s", rate=1.0)
        a.add_location("t")
        a.add_edge("s", "t")
        net = Network()
        net.add_process("P", a)
        net.freeze()
        # Sneaks past Automaton.validate, which runs in add_process.
        a.locations["s"].invariant = (clk("z", "<=", 3),)
        with pytest.raises(ModelError, match="unknown clock 'z'"):
            StochasticSimulator(net, rng=1).run(max_time=10)

    def test_committed_location_wins_at_delay_zero(self):
        """An urgent component bids 0 first in process order, yet the
        committed one moves."""
        urgent = Automaton("U", clocks=[])
        urgent.add_location("u", urgent=True)
        urgent.add_location("v")
        urgent.add_edge("u", "v")
        committed = Automaton("C", clocks=[])
        committed.add_location("c", committed=True)
        committed.add_location("d")
        committed.add_edge("c", "d")
        net = Network()
        net.add_process("U", urgent)
        net.add_process("C", committed)
        net.freeze()
        for seed in range(5):
            simulator = StochasticSimulator(net, rng=seed)
            assert simulator.step(simulator.initial())[:2] == (0.0, "C:c->d")

    @pytest.mark.parametrize("rate, default_rate", [
        (0, 1.0), ("x", 1.0), (-1.0, 1.0), (math.nan, 1.0),
        (math.inf, 1.0), (None, 0), (None, -1.0), (None, math.nan)])
    def test_malformed_rate_raises_model_error(self, rate, default_rate):
        a = Automaton("A", clocks=[])
        a.add_location("s", rate=rate)
        a.add_location("t")
        a.add_edge("s", "t")
        net = Network()
        net.add_process("P", a)
        net.freeze()
        with pytest.raises(ModelError, match="rate"):
            StochasticSimulator(net, rng=1,
                                default_rate=default_rate).run(max_time=10)


def counting_guard(calls, tag, error=None):
    """A data guard that logs ``tag`` on every call and holds, or
    raises ``error`` once ``n`` reaches 2."""
    def test(valuation):
        calls.append(tag)
        if error is not None and valuation["n"] == 2:
            raise error
        return True
    return test


def counting_network(calls, raising=None, error=None):
    """``S`` broadcasts ``a`` and bumps ``n`` on every step; ``S`` and
    ``R`` both listen on ``a``, ``R`` also on ``b``, which nobody sends.
    Every guard counts its calls; the one tagged ``raising`` raises
    ``error`` once ``n`` reaches 2."""
    def guard(tag):
        return counting_guard(calls, tag, error if tag == raising else None)

    decls = Declarations()
    decls.declare_int("n", 0, 0, 3)
    net = Network("count")
    net.declarations = decls
    net.add_channel("a", broadcast=True)
    net.add_channel("b", broadcast=True)
    s = Automaton("S", clocks=[])
    s.add_location("s", rate=1.0)
    s.add_edge("s", "s", sync=("a", "!"), update=[bump],
               data_guard=guard("send"))
    s.add_edge("s", "s", sync=("a", "?"), data_guard=guard("own"))
    net.add_process("S", s)
    r = Automaton("R", clocks=[])
    r.add_location("r")
    r.add_edge("r", "r", sync=("a", "?"), data_guard=guard("a"))
    r.add_edge("r", "r", sync=("b", "?"), data_guard=guard("b"))
    net.add_process("R", r)
    return net.freeze()


class TestConfigPlans:
    def test_built_once_per_configuration_and_shared_by_a_batch(
            self, monkeypatch):
        built = []

        class CountingPlan(stochastic.ConfigPlan):
            __slots__ = ()

            def __init__(self, network, plans, locs, valuation):
                built.append((locs, valuation.values))
                super().__init__(network, plans, locs, valuation)

        lookups = []
        table_get = PlanTable.get

        def counting_get(table, key, default=None):
            lookups.append(key)
            return table_get(table, key, default)

        monkeypatch.setattr(stochastic, "ConfigPlan", CountingPlan)
        monkeypatch.setattr(PlanTable, "get", counting_get)
        network = make_traingate(3)
        simulators = []

        def factory(rng):
            simulators.append(StochasticSimulator(network, rng=rng))
            return simulators[-1]

        first_passage_batch(
            factory, {i: cross_predicate(i) for i in range(3)},
            horizon=100, seeds=range(20))
        configs = config_plans(network)
        assert all(sim._configs is configs for sim in simulators)
        assert len(built) == len(set(built)) == len(configs)
        assert all(key in configs for key in built)
        # Runs follow links: a configuration is looked up by key once
        # per run, at the start, and once per link, when a walk first
        # follows it.
        followed = [link for config in configs.values()
                    for link in config.links.values()
                    if link.plan is not None]
        assert set(lookups) == set(configs)
        assert len(lookups) == len(simulators) + len(followed)

    def test_guards_run_once_per_configuration_and_only_when_needed(self):
        """Output guards run once per configuration; receive guards run
        only for a channel that fires, never on the sender's own edges."""
        calls = []
        network = counting_network(calls)
        for seed in range(3):
            StochasticSimulator(network, rng=seed).run(max_time=30)
        assert sorted(calls) == ["a"] * 4 + ["send"] * 4
        assert len(config_plans(network)) == 4

    @pytest.mark.parametrize("tag", ["send", "a"])
    def test_raising_guard_surfaces_on_every_visit(self, tag):
        error = EvaluationError("guard failed")
        network = counting_network([], raising=tag, error=error)
        for seed in range(2):
            with pytest.raises(EvaluationError) as excinfo:
                StochasticSimulator(network, rng=seed).run(max_time=30)
            assert excinfo.value is error


class TestRunCounters:
    def test_max_steps_error_counts_every_step(self):
        with collecting() as collector:
            with pytest.raises(AnalysisError, match="exceeded 5 steps"):
                StochasticSimulator(broadcast_network(), rng=2012).run(
                    max_time=math.inf, max_steps=5)
        assert collector.value("smc.sim.steps") == 5
        assert collector.value("smc.sim.runs") == 1


class TestDiagonalConstraints:
    """Diagonal atoms would be simulated as plain bounds on their first
    clock; the simulator refuses them when it is built instead."""

    def network(self, invariant=(), guard=()):
        a = Automaton("A", clocks=["x", "y"])
        a.add_location("s", rate=1.0)
        a.add_location("t", invariant=invariant)
        a.add_location("u")
        a.add_edge("s", "t", resets=[("x", 0)])
        a.add_edge("t", "u", guard=guard)
        net = Network()
        net.add_process("P", a)
        return net.freeze()

    def test_diagonal_invariant_rejected(self):
        net = self.network(invariant=[clk("x", "<=", 3, other="y")])
        with pytest.raises(ModelError, match="diagonal"):
            StochasticSimulator(net)

    def test_diagonal_guard_rejected(self):
        net = self.network(guard=[clk("x", ">", 1, other="y")])
        with pytest.raises(ModelError, match="diagonal"):
            StochasticSimulator(net)
        with pytest.raises(ModelError, match="diagonal"):
            StochasticSimulator(net)  # a rejection is not cached

    def test_plain_bounds_accepted(self):
        net = self.network(invariant=[clk("x", "<=", 3)],
                           guard=[clk("y", ">", 1)])
        names = []
        StochasticSimulator(net, rng=1).run(
            max_time=100, observer=lambda t, n, v, c: names.append(n[0]))
        assert names[-1] == "u"
