"""The digital-clocks simulator (:mod:`repro.pta.simulate`, the modes
backend): its random stream, its per-state step plans, and the edges it
must treat as disabled.

The golden values pin the stream: a seed must give the same traces, the
same Table I ``modes`` hit times and the same splitting estimate, in a
single process and across a worker pool.  The pool test honours
``REPRO_MP_START`` (``fork`` / ``spawn``); under spawn every worker
rebuilds the model from its ``Spec`` and builds its own step plans.
"""

import gc
import hashlib
import json
import math
import os
from functools import partial

import pytest

from repro.core import AnalysisError, ModelError
from repro.models import brp
from repro.modest import Emax, Pmax, Reach, modes
from repro.modest.toolset import modes_simulator
from repro.obs import collecting
from repro.pta import (
    PTA,
    DigitalSimulator,
    PTANetwork,
    build_digital_mdp,
    digital_semantics,
)
from repro.pta.simulate import _StepPlan
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    Spec,
    seed_stream,
    seeded_batches,
)
from repro.smc import first_passage_cdfs, fixed_effort_splitting
from repro.smc.cdf import first_passage_batch
from repro.ta import clk

MP_START = os.environ.get("REPRO_MP_START") or None

TRACE_SEEDS = (1, 2, 3)

#: Per policy: sha256 of the JSON-encoded ``record_trace`` traces of
#: ``brp.make_brp(16, 2, 1)`` from ``TRACE_SEEDS`` (``max_time`` 200,
#: transitions by their description), and the length of each trace.
GOLDEN_TRACES = {
    "max-delay": (
        "eef6dbbf1a31031d07cb62eef75ff6ea14158f9c9adf6cd95bda542aef4a4ba6",
        [114, 131, 114]),
    "min-delay": (
        "9fc2f8f3bcc49f22cf2e68c173baca9cfbc5732eb493b144f1ba4a51f32e437e",
        [84, 101, 84]),
    "uniform": (
        "4eb03422f2a9bc9ec5c1bc426f01a51962919a4209ee01c864a53c37ee752f82",
        [101, 100, 101]),
}

#: sha256 of the JSON-encoded per-run hit times of 200 Table I ``modes``
#: runs (seed 2012, max-delay, ``max_time`` 200) and their
#: ``pta.sim.steps``.
GOLDEN_HITS_SHA256 = (
    "e88275cdcdfe485e41f99f4f8cbdbde5c135a89ceeb5985ec08247e55302eb62")
GOLDEN_HITS_STEPS = 23399

#: ``fixed_effort_splitting`` on the single-frame BRP of
#: ``tests/test_rare_events.py`` (300 runs per stage, seed 7).
GOLDEN_SPLITTING = (
    5.296296296296296e-05,
    [0.03333333333333333, 0.03666666666666667, 0.043333333333333335])

TABLE1_PROPERTIES = [Reach("TA1", brp.premature_timeout),
                     Pmax("P1", brp.not_success),
                     Pmax("P2", brp.uncertainty),
                     Emax("Emax", brp.reported)]


def digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def brp_traces(policy):
    network = brp.make_brp(16, 2, 1)
    traces = []
    for seed in TRACE_SEEDS:
        run = DigitalSimulator(network, policy=policy, rng=seed).run(
            max_time=200, record_trace=True)
        traces.append([(kind if kind == "tick" else kind.describe(),
                        elapsed) for kind, elapsed in run.trace])
    return digest(traces), [len(trace) for trace in traces]


def table1_hits(executor):
    """The per-run hit dicts of 200 seeded modes runs, digested (never
    hit as ``None``), with the steps they took."""
    args = (partial(modes_simulator, Spec(brp.make_brp, 16, 2, 1),
                    "max-delay"),
            {p.name: p.predicate for p in TABLE1_PROPERTIES}, 200)
    with collecting() as collector:
        hits = [{name: None if time == math.inf else time
                 for name, time in hit.items()}
                for batch in seeded_batches(
                    first_passage_batch, args, seed_stream(2012, 200),
                    executor, size=25)
                for hit in batch]
    return (digest(hits), collector.value("pta.sim.steps"),
            collector.value("pta.sim.runs"))


def frame_level(names, valuation, _clocks):
    if names[0] in ("s_nok", "s_dk"):
        return 3
    return valuation["rc"]


class TestGoldenStream:
    @pytest.mark.parametrize("policy", sorted(GOLDEN_TRACES))
    def test_brp_traces(self, policy):
        sha, lengths = GOLDEN_TRACES[policy]
        assert brp_traces(policy) == (sha, lengths)

    def test_table1_hits_serial(self):
        assert table1_hits(SerialExecutor()) == (
            GOLDEN_HITS_SHA256, GOLDEN_HITS_STEPS, 200)

    def test_table1_hits_parallel_equal_serial(self):
        with ParallelExecutor(workers=2, mp_context=MP_START) as executor:
            parallel = table1_hits(executor)
        assert parallel == (GOLDEN_HITS_SHA256, GOLDEN_HITS_STEPS, 200)

    def test_splitting_follows_the_step_stream(self):
        result = fixed_effort_splitting(
            brp.make_brp(1, 2, 1), frame_level, max_level=3,
            runs_per_stage=300, rng=7)
        assert (result.probability,
                result.stage_probabilities) == GOLDEN_SPLITTING
        assert result.total_runs == 900


def table1_modes(network, runs=100):
    with collecting() as collector:
        result = modes(network, TABLE1_PROPERTIES, runs=runs, rng=2012,
                       max_time=200)
    values = {name: (estimate.successes if name != "Emax"
                     else estimate.samples)
              for name, estimate in result.items()}
    return values, collector.value("pta.sim.steps")


class TestFirstPassage:
    def test_digital_cdf_at_the_horizon_equals_modes(self):
        """``first_passage_cdfs`` drives a ``DigitalSimulator`` factory,
        and with the same per-run seeds its value at the horizon is
        exactly the fraction of modes runs that hit."""
        network = brp.make_brp(2, 2, 1)
        ok = brp.sender_in("s_ok")
        cdf = first_passage_cdfs(
            partial(DigitalSimulator, network, "max-delay"), {"ok": ok},
            horizon=6, runs=300, grid=[6], rng=5)
        estimate = modes(network, [Pmax("ok", ok)], runs=300, rng=5,
                         max_time=6)["ok"]
        assert 0 < estimate.successes < 300
        assert cdf == {"ok": [estimate.successes / estimate.runs]}


def live_plans():
    """Step plans allocated since the last collection and still alive;
    with the collector off, only reference counting frees them."""
    return sum(type(o) is _StepPlan for o in gc.get_objects(generation=0))


class TestStepPlans:
    def test_shared_by_every_simulator_of_a_network(self):
        network = brp.make_brp(2, 2, 1)
        plans = digital_semantics(network).step_plans
        for seed in range(5):
            DigitalSimulator(network, rng=seed).run(max_time=200)
        built = dict(plans)
        with collecting() as collector:
            for seed in range(5):
                DigitalSimulator(network, rng=seed).run(max_time=200)
        assert 0 < len(built) < collector.value("pta.sim.steps")
        # The same runs again find every plan and build none: the table
        # holds the same plan objects (plans compare by identity).
        assert plans == built
        assert DigitalSimulator(network)._plans is plans

    def test_bounded_table_gives_the_unbounded_outputs(self):
        unbounded = table1_modes(brp.make_brp(16, 2, 1))
        network = brp.make_brp(16, 2, 1)
        plans = digital_semantics(network).step_plans
        plans.maxsize = 4  # on this instance only; not a parameter
        sizes, live = [], []

        def watch(*_state):
            sizes.append(len(plans))
            live.append(live_plans())

        gc.collect()
        gc.disable()
        try:
            assert table1_modes(network) == unbounded
            live.append(live_plans())
            generation = plans.generation
            DigitalSimulator(network, rng=3).run(max_time=200,
                                                 observer=watch)
        finally:
            gc.enable()
        assert max(sizes) == 4
        assert plans.generation > generation > 0
        # The table's plans plus the one the walk stands on.
        assert max(live) <= plans.maxsize + 1

    def test_dropped_generations_are_freed_without_the_collector(self):
        """A walk that takes ``self_loop_network``'s loop links a plan
        to itself; a new generation unlinks the plans it drops, so
        reference counting alone frees them."""
        network = self_loop_network()
        plans = digital_semantics(network).step_plans
        plans.maxsize = 4  # on this instance only; not a parameter
        gc.collect()
        gc.disable()
        try:
            for seed in range(20):
                DigitalSimulator(network, policy="uniform", rng=seed).run()
            live = live_plans()
        finally:
            gc.enable()
        assert plans.generation > 0
        assert live <= plans.maxsize

    def test_max_steps_error_counts_every_step(self):
        with collecting() as collector:
            with pytest.raises(AnalysisError, match="exceeded 5 steps"):
                DigitalSimulator(brp.make_brp(2, 2, 1), rng=1).run(
                    max_time=200, max_steps=5)
        assert collector.value("pta.sim.steps") == 5
        assert collector.value("pta.sim.runs") == 1


def self_loop_network():
    """``P`` stays in ``A``, looping there in zero time until ``x``
    passes 5; then it is stuck."""
    a = PTA("P", clocks=["x"])
    a.add_location("A")
    a.initial_location = "A"
    a.add_edge("A", "A", guard=[clk("x", "<=", 5)])
    net = PTANetwork()
    net.add_process("P", a)
    return net.freeze()


def guarded_choice_network():
    """From ``s`` at ``x >= 3``: a Dirac edge into ``bad``, whose
    invariant ``x <= 2`` it would break, and one into ``ok``."""
    a = PTA("P", clocks=["x"])
    a.add_location("s")
    a.add_location("bad", invariant=[clk("x", "<=", 2)])
    a.add_location("ok")
    a.initial_location = "s"
    a.add_edge("s", "bad", guard=[clk("x", ">=", 3)])
    a.add_edge("s", "ok", guard=[clk("x", ">=", 3)])
    net = PTANetwork()
    net.add_process("P", a)
    return net.freeze()


def is_ok(names, _valuation, _clocks):
    return names[0] == "ok"


class TestDisabledEdges:
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_dirac_edge_into_a_broken_invariant_is_never_taken(self, seed):
        simulator = DigitalSimulator(guarded_choice_network(),
                                     policy="min-delay", rng=seed)
        run = simulator.run(stop=is_ok)
        assert simulator.network.location_vector_names(
            run.final_state.locs) == ("ok",)
        assert run.elapsed == 3

    def test_probabilistic_branch_breaking_an_invariant_raises_on_visit(
            self):
        """Outcomes are computed when a state's plan is built, so the
        error surfaces on the first visit to a state where the edge is
        enabled, as in ``build_digital_mdp``, even when the scheduler
        would have let time pass there instead."""
        a = PTA("P", clocks=["x"])
        a.add_location("s")
        a.add_location("bad", invariant=[clk("x", "<=", 0)])
        a.add_location("ok")
        a.initial_location = "s"
        a.add_prob_edge("s", [(0.5, "bad"), (0.5, "ok")],
                        guard=[clk("x", ">=", 1)])
        net = PTANetwork()
        net.add_process("P", a)
        net.freeze()
        simulator = DigitalSimulator(net, policy="max-delay", rng=1)
        kind, state, _dt = simulator.step(simulator.initial())
        assert kind == "tick"
        with pytest.raises(ModelError, match="probabilistic branch"):
            simulator.step(state)
        with pytest.raises(ModelError, match="probabilistic branch"):
            build_digital_mdp(net)
