"""E8 — engine micro-benchmarks and the ablations called out in
DESIGN.md:

* DBM operation throughput (the inner loop of every zone engine);
* zone-graph exploration with/without extrapolation and inclusion;
* value iteration vs. interval iteration on the BRP MDP;
* SMC sample budget vs. confidence-interval width;
* BIP priority filtering on/off.

Standalone use runs one representative workload per engine under the
observability layer and writes a ``repro.obs``-schema report (the CI
engine-metrics artifact)::

    python benchmarks/bench_engines.py --quick --json out.json

``--profile`` additionally runs the workload under the sampling
profiler (attaching the collapsed-stack profile to the report, and —
in ``--explore`` mode — asserting the ≤ 5 % overhead bound CI relies
on), ``--flame PATH`` exports the flamegraph-ready collapsed stacks,
and ``--runstore PATH`` records the report into the persistent
``repro.runs/1`` history that ``python -m repro.obs.report diff``
and ``check_regression.py`` attribute regressions from.

Every standalone mode also runs under a flight recorder
(:mod:`repro.obs.flight`) and embeds the recording in the report, so
the CI artifacts feed ``python -m repro.obs.dashboard`` directly;
``--explore`` additionally measures the recorder's wall-time cost
against a recorder-off run and asserts the ≤ 3 % bound
(:data:`MAX_FLIGHT_OVERHEAD`, recorded as ``obs.flight.overhead``).
"""

import math
import time

import pytest

from repro.core import ResultTable
from repro.dbm import DBM, le
from repro.mc import EF, LocationIs, Verifier, explore
from repro.mc.reference import reference_explore
from repro.mdp import reachability_probability
from repro.models import brp
from repro.models.dala import make_dala
from repro.models.fischer import make_fischer
from repro.models.traingate import make_traingate
from repro.pta import build_digital_mdp
from repro.smc import ProbabilityEstimate, chernoff_runs
from repro.ta import ZoneGraph
from repro.bip import BIPEngine


@pytest.mark.benchmark(group="engines-dbm")
def test_dbm_operation_throughput(benchmark):
    """Constrain + reset + up + inclusion on an 8-clock DBM."""
    def workload():
        z = DBM.zero(8).up()
        for i in range(1, 8):
            z.constrain(i, 0, le(2 * i + 10))
        z2 = z.copy()
        z2.reset(3, 0)
        z2.up()
        z2.extrapolate([0] + [20] * 7)
        return z.includes(z2)

    benchmark(workload)


@pytest.mark.benchmark(group="engines-explore")
@pytest.mark.parametrize("extrapolate,inclusion", [
    (True, True), (True, False), (False, True)])
def test_exploration_ablation(benchmark, extrapolate, inclusion):
    """State counts with/without extrapolation and subsumption.

    Without extrapolation the train gate still terminates (resets bound
    the zones) but stores more states; without inclusion the counts
    grow further.  (Extrapolation OFF with inclusion OFF is skipped: it
    is the pathological quadrant.)
    """
    network = make_traingate(2)

    def run():
        graph = ZoneGraph(network,
                          abstraction="lu+" if extrapolate else "none")
        return explore(graph, use_inclusion=inclusion).states_explored

    states = benchmark.pedantic(run, rounds=1, iterations=1)
    table = ResultTable("extrapolation", "inclusion", "states",
                        title="Zone-graph ablation (2 trains)")
    table.add_row(extrapolate, inclusion, states)
    table.print()
    assert states > 0


@pytest.mark.benchmark(group="engines-explore")
def test_exploration_core_vs_reference(benchmark):
    """The rewritten exploration core against the preserved seed engine.

    The compat configuration (classic k-extrapolation, no waiting-list
    eviction) must agree with the seed oracle exactly; the default lu+
    abstraction must store no more states (see ``--explore`` for the
    timed comparison on the larger Fischer instance)."""
    network = make_fischer(4)

    def run():
        return explore(ZoneGraph(network, abstraction="k"),
                       evict_waiting=False).states_stored

    stored = benchmark.pedantic(run, rounds=1, iterations=1)
    reference = reference_explore(ZoneGraph(network, abstraction="k"))
    assert stored == reference.states_stored
    lu = explore(ZoneGraph(network))
    assert lu.states_stored <= stored


def exploration_benchmark(n, require_speedup=None, abstraction="lu+"):
    """Timed old-vs-new exploration on Fischer ``n`` under the active
    collector.  Three engines run:

    * ``reference`` — the preserved seed engine (classic
      k-extrapolation, split passed list / frontier);
    * ``core-k`` — the unified exploration core in its *compat*
      configuration (k-extrapolation, no waiting-list eviction), which
      must match the reference **bit for bit**;
    * ``core`` — the production default: the requested ``abstraction``
      (lu+ unless overridden) with bidirectional waiting-list
      subsumption, which must reach exactly the same discrete
      configurations while storing no more states.

    The speedup is ``reference / core``.  Returns the measurement dict
    (also used by ``--explore``).
    """
    from repro.obs.trace import span

    network = make_fischer(n)
    runs = {}
    configs = {}
    with span("bench.explore", model=f"fischer{n}",
              abstraction=abstraction) as sp:
        for name, graph, search, kwargs in (
                ("reference",
                 ZoneGraph(network, abstraction="k"),
                 reference_explore, {}),
                ("core-k",
                 ZoneGraph(network, abstraction="k"),
                 explore, {"evict_waiting": False}),
                ("core",
                 ZoneGraph(network, abstraction=abstraction),
                 explore, {})):
            seen = set()
            if name != "reference":
                kwargs = dict(kwargs,
                              on_state=lambda s, seen=seen:
                              seen.add(s.discrete_key()))
            start = time.perf_counter()
            result = search(graph, **kwargs)
            seconds = time.perf_counter() - start
            runs[name] = (result, graph.stats.snapshot(), seconds)
            configs[name] = seen
        reference = runs["reference"]
        compat = runs["core-k"][0]
        assert (compat.found, compat.states_explored,
                compat.states_stored) == \
            (reference[0].found, reference[0].states_explored,
             reference[0].states_stored), "core-k"
        core = runs["core"][0]
        assert configs["core"] == configs["core-k"], (
            f"{abstraction} reaches "
            f"{len(configs['core'] - configs['core-k'])} spurious / "
            f"misses {len(configs['core-k'] - configs['core'])} discrete "
            f"configurations")
        assert core.states_stored <= reference[0].states_stored
        speedup = reference[2] / runs["core"][2]
        reduction = reference[0].states_explored \
            / max(1, core.states_explored)
        sp.set("states", reference[0].states_stored)
        sp.set("speedup", round(speedup, 2))
    if require_speedup is not None:
        assert speedup >= require_speedup, (
            f"exploration core only {speedup:.2f}x faster than the seed "
            f"engine on fischer{n} (required {require_speedup}x)")

    table = ResultTable("engine", "seconds", "explored", "stored",
                        title=f"Exploration engines, Fischer n={n}")
    for name in ("reference", "core-k", "core"):
        result, _stats, seconds = runs[name]
        table.add_row(name, round(seconds, 2), result.states_explored,
                      result.states_stored)
    table.print()
    print(f"speedup (reference / core): {speedup:.2f}x, "
          f"states-explored reduction: {reduction:.2f}x")
    return {"model": f"fischer{n}",
            "abstraction": abstraction,
            "states": reference[0].states_stored,
            "core_states_explored": core.states_explored,
            "core_states_stored": core.states_stored,
            "state_reduction": round(reduction, 2),
            "reference_seconds": round(reference[2], 3),
            "core_seconds": round(runs["core"][2], 3),
            "speedup": round(speedup, 2)}


def mdp_benchmark(n_frames, max_retrans, require_speedup=None):
    """Timed old-vs-new probabilistic pipeline on BRP under the active
    collector: digital-MDP build + Pmax(not_success) reachability, seed
    engine (``repro.mdp.reference``) vs memoised builder + sparse core.
    Asserts identical state spaces and values within 1e-9 and
    (optionally) a minimum end-to-end speedup.  Returns the measurement
    dict (also used by ``--mdp``).
    """
    import numpy as np

    from repro.mdp.reference import (
        reachability_probability as reference_reachability,
        reference_build_digital_mdp,
    )
    from repro.obs.trace import span

    model = f"brp({n_frames},{max_retrans})"
    runs = {}
    with span("bench.mdp_core", model=model) as sp:
        for name, build, solve in (
                ("reference", reference_build_digital_mdp,
                 reference_reachability),
                ("core", build_digital_mdp, reachability_probability)):
            network = brp.make_brp(n_frames, max_retrans, 1)
            start = time.perf_counter()
            digital = build(network)
            built = time.perf_counter()
            targets = digital.states_where(brp.not_success)
            values = solve(digital.mdp, targets, maximize=True)
            done = time.perf_counter()
            runs[name] = (digital, targets, values,
                          built - start, done - built)
        reference, core = runs["reference"], runs["core"]
        assert core[0].mdp.num_states == reference[0].mdp.num_states
        assert core[1] == reference[1]
        assert float(np.max(np.abs(core[2] - reference[2]))) <= 1e-9
        reference_total = reference[3] + reference[4]
        core_total = core[3] + core[4]
        speedup = reference_total / core_total
        sp.set("states", reference[0].mdp.num_states)
        sp.set("speedup", round(speedup, 2))
    if require_speedup is not None:
        assert speedup >= require_speedup, (
            f"MDP core only {speedup:.2f}x faster than the seed engine "
            f"on {model} (required {require_speedup}x)")

    table = ResultTable("engine", "build s", "solve s", "states",
                        title=f"Digital-MDP pipeline, {model}")
    for name in ("reference", "core"):
        digital, _targets, _values, build_s, solve_s = runs[name]
        table.add_row(name, round(build_s, 2), round(solve_s, 2),
                      digital.mdp.num_states)
    table.print()
    print(f"speedup (reference / core): {speedup:.2f}x")
    return {"model": model,
            "states": reference[0].mdp.num_states,
            "reference_seconds": round(reference_total, 3),
            "core_seconds": round(core_total, 3),
            "speedup": round(speedup, 2)}


@pytest.mark.benchmark(group="engines-mdp")
def test_mdp_core_vs_reference(benchmark):
    """The sparse MDP core against the preserved seed engine (values
    must agree within 1e-9; see ``--mdp`` for the timed comparison on
    the larger BRP instance)."""
    import numpy as np

    from repro.mdp.reference import (
        reachability_probability as reference_reachability,
    )

    digital = build_digital_mdp(brp.make_brp(8, 1, 1))
    targets = digital.states_where(brp.not_success)

    def run():
        return reachability_probability(digital.mdp, targets,
                                        maximize=True)

    values = benchmark.pedantic(run, rounds=1, iterations=1)
    truth = reference_reachability(digital.mdp, targets, maximize=True)
    assert float(np.max(np.abs(values - truth))) <= 1e-9


@pytest.mark.benchmark(group="engines-mdp")
@pytest.mark.parametrize("interval", [False, True])
def test_value_iteration_ablation(benchmark, interval):
    """Plain value iteration vs. certified interval iteration."""
    digital = build_digital_mdp(brp.make_brp(16, 2, 1))
    targets = digital.states_where(brp.not_success)

    def solve():
        return float(reachability_probability(
            digital.mdp, targets, maximize=True, interval=interval)[0])

    value = benchmark(solve)
    assert value == pytest.approx(4.233e-4, rel=1e-3)


@pytest.mark.benchmark(group="engines-smc")
def test_smc_budget_vs_interval_width(benchmark):
    """The Chernoff bound and the realised Clopper-Pearson widths."""
    def widths():
        rows = []
        for runs in (100, 400, 1600):
            estimate = ProbabilityEstimate(runs // 4, runs)
            rows.append((runs, estimate.high - estimate.low))
        return rows

    rows = benchmark(widths)
    table = ResultTable("runs", "CP interval width",
                        title="SMC budget ablation (p ~ 0.25)")
    for runs, width in rows:
        table.add_row(runs, round(width, 4))
    table.print()
    assert rows[0][1] > rows[1][1] > rows[2][1]
    assert chernoff_runs(0.05, 0.05) == 738


@pytest.mark.benchmark(group="engines-bip")
@pytest.mark.parametrize("with_priorities", [True, False])
def test_bip_priority_ablation(benchmark, with_priorities):
    """Engine throughput and suppressed-interaction counts with the
    DALA priority layer on and off."""
    system = make_dala(with_controller=True, counter_bound=4)
    if not with_priorities:
        system.priorities = []

    def run():
        engine = BIPEngine(system, rng=3)
        trace = engine.run(max_steps=400)
        return trace.blocked_count

    blocked = benchmark.pedantic(run, rounds=1, iterations=1)
    if not with_priorities:
        assert blocked == 0


#: The CI-asserted bound on the sampling profiler's measured duty
#: cycle (seconds spent unwinding stacks / profiled wall seconds).
MAX_PROFILE_OVERHEAD = 0.05

#: The CI-asserted bound on the flight recorder's wall-time cost at
#: default sampling: recorder-on exploration within 3% of recorder-off.
MAX_FLIGHT_OVERHEAD = 0.03


def flight_overhead_measurement(n, abstraction="lu+", rounds=5,
                                min_sample_seconds=0.3):
    """Measured wall-time cost of the flight recorder on the Fischer
    exploration: recorder-off and recorder-on samples alternate on
    fresh graphs (so neither side inherits warm caches), and the
    overhead is computed best-of-``rounds`` against best-of-``rounds``
    — the *min* is the noise-robust statistic for a fixed workload.
    Each timed sample batches enough explorations to last at least
    ``min_sample_seconds``, so the quick CI instance (fischer4,
    tens of milliseconds per exploration) is not noise-dominated.
    Asserts the :data:`MAX_FLIGHT_OVERHEAD` bound and returns the
    measured ratio (recorded in the obs artifact as
    ``obs.flight.overhead``)."""
    from repro.obs.flight import FlightRecorder, recording

    network = make_fischer(n)

    def timed(recorder_on, iters):
        import contextlib

        graphs = [ZoneGraph(network, abstraction=abstraction)
                  for _ in range(iters)]
        scope = recording(FlightRecorder()) if recorder_on \
            else contextlib.nullcontext()
        with scope:
            start = time.perf_counter()
            for graph in graphs:
                explore(graph)
            return time.perf_counter() - start

    single = timed(True, 1)   # also warms bytecode / allocator
    iters = max(1, math.ceil(min_sample_seconds / max(single, 1e-9)))

    def measure(n_rounds):
        offs, ons = [], []
        for _ in range(n_rounds):
            offs.append(timed(False, iters))
            ons.append(timed(True, iters))
        ratio = max(0.0, min(ons) / min(offs) - 1.0)
        print(f"flight-recorder overhead: {ratio:.2%} "
              f"(best off {min(offs):.3f}s, best on {min(ons):.3f}s, "
              f"{iters} explorations/sample, {n_rounds} rounds)")
        return ratio

    overhead = measure(rounds)
    if overhead > MAX_FLIGHT_OVERHEAD:
        # One noisy-neighbour episode on a shared CI runner can skew
        # a whole measurement window; re-measure once with more rounds
        # before declaring a regression.
        print("over bound, re-measuring once")
        overhead = measure(rounds * 2)
    assert overhead <= MAX_FLIGHT_OVERHEAD, (
        f"flight recorder cost {overhead:.1%} of the fischer{n} "
        f"exploration (bound {MAX_FLIGHT_OVERHEAD:.0%})")
    return overhead


def _finish(report, args, default_label):
    """Shared tail of every standalone mode: print, write the JSON
    artifact (atomically), export the flamegraph, record the run."""
    import os

    report.print()
    label = default_label
    if args.json_path:
        report.write(args.json_path)
        print(f"wrote {args.json_path}")
        label = os.path.basename(args.json_path)
    if args.flame and report.profile is not None:
        profile = report.profile
        collapsed = profile.profile.to_collapsed() \
            if hasattr(profile, "profile") else profile.to_collapsed()
        with open(args.flame, "w", encoding="utf-8") as handle:
            handle.write(collapsed + "\n")
        print(f"wrote {args.flame} (collapsed stacks; feed to "
              f"flamegraph.pl or speedscope)")
    if args.runstore:
        from repro.obs.runstore import RunStore

        record = RunStore(args.runstore).append(report, label)
        print(f"recorded {record['run_id']} "
              f"(fingerprint {record['fingerprint']}, "
              f"git {str(record['git_sha'])[:10]}) -> {args.runstore}")
    return 0


def main(argv=None):
    """Standalone mode: one observed representative workload per engine,
    reported as tables and (optionally) a schema-versioned JSON file."""
    import argparse
    import contextlib

    from repro.models.traingate import cross_predicate
    from repro.obs.flight import FlightRecorder, recording
    from repro.obs.metrics import Collector, collecting
    from repro.obs.profiler import Profiler, profiling
    from repro.obs.report import Report
    from repro.obs.trace import Tracer, span, tracing
    from repro.smc import probability_estimate

    parser = argparse.ArgumentParser(
        description="engine workloads under the observability layer")
    parser.add_argument("--quick", action="store_true",
                        help="small budgets (CI smoke)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the repro.obs report to this path")
    parser.add_argument("--explore", action="store_true",
                        help="run the exploration old-vs-new benchmark "
                             "instead of the per-engine workloads")
    parser.add_argument("--fischer", type=int, default=None,
                        help="Fischer instance size for --explore "
                             "(default 6, or 4 with --quick)")
    parser.add_argument("--abstraction", default="lu+",
                        choices=["lu+", "k", "none"],
                        help="zone abstraction for the --explore "
                             "'core' engine (default lu+)")
    parser.add_argument("--mdp", action="store_true",
                        help="run the probabilistic-pipeline old-vs-new "
                             "benchmark (BRP digital MDP build + check) "
                             "instead of the per-engine workloads")
    parser.add_argument("--profile", action="store_true",
                        help="sample the workload under the statistical "
                             "profiler and attach the profile")
    parser.add_argument("--profile-hz", type=float, default=None,
                        help="sampling rate (default: the profiler's "
                             "DEFAULT_HZ)")
    parser.add_argument("--flame", default=None, metavar="PATH",
                        help="write flamegraph-ready collapsed stacks "
                             "(implies --profile)")
    parser.add_argument("--runstore", default=None, metavar="PATH",
                        help="append the report to this repro.runs/1 "
                             "JSONL run history")
    args = parser.parse_args(argv)
    smc_runs = 100 if args.quick else 738

    profiler = None
    if args.profile or args.flame or args.profile_hz is not None:
        from repro.obs.profiler import DEFAULT_HZ

        profiler = Profiler(hz=args.profile_hz if args.profile_hz
                            is not None else DEFAULT_HZ)
    scope = profiling(profiler=profiler) if profiler is not None \
        else contextlib.nullcontext()

    if args.mdp:
        n_frames, max_retrans = (16, 2) if args.quick else (64, 5)
        collector = Collector("bench_mdp")
        tracer = Tracer()
        recorder = FlightRecorder()
        with collecting(collector), tracing(tracer), scope, \
                recording(recorder):
            # The acceptance bar: the memoised builder + sparse core
            # must be at least 2x the seed pipeline end-to-end.
            measurement = mdp_benchmark(n_frames, max_retrans,
                                        require_speedup=2.0)
        report = Report(collector, tracer, profile=profiler,
                        flight=recorder,
                        meta={"benchmark": "mdp-core", **measurement})
        return _finish(report, args, "bench-mdp")

    if args.explore:
        n = args.fischer if args.fischer is not None \
            else (4 if args.quick else 6)
        # Measured before any ambient scopes exist, so the recorder-off
        # runs really have no observer installed.
        flight_overhead = flight_overhead_measurement(
            n, abstraction=args.abstraction)
        collector = Collector("bench_explore")
        tracer = Tracer()
        recorder = FlightRecorder()
        with collecting(collector), tracing(tracer), scope, \
                recording(recorder):
            # The acceptance bar (>= 2x over the seed engine) is only
            # meaningful on instances large enough for the quadratic
            # terms to dominate.
            measurement = exploration_benchmark(
                n, require_speedup=2.0 if n >= 5 else None,
                abstraction=args.abstraction)
        measurement["flight_overhead"] = round(flight_overhead, 6)
        collector.set_max("obs.flight.overhead",
                          round(flight_overhead, 6))
        if profiler is not None:
            # The profiler accounts its own duty cycle; the smoke job
            # asserts the documented overhead bound on a real workload.
            # Only the float lands in meta: run-varying ints would
            # pollute the run store's workload fingerprint.
            overhead = profiler.profile.overhead_ratio
            measurement["profile_overhead"] = round(overhead, 6)
            print(f"profiler overhead: {overhead:.2%} "
                  f"({profiler.profile.samples} samples at "
                  f"{profiler.hz:g} Hz)")
            assert overhead <= MAX_PROFILE_OVERHEAD, (
                f"sampling profiler consumed {overhead:.1%} of the "
                f"exploration benchmark (bound "
                f"{MAX_PROFILE_OVERHEAD:.0%})")
        report = Report(collector, tracer, profile=profiler,
                        flight=recorder,
                        meta={"benchmark": "exploration", **measurement})
        return _finish(report, args, "bench-explore")

    collector = Collector("bench_engines")
    tracer = Tracer()
    recorder = FlightRecorder()
    with collecting(collector), tracing(tracer), scope, \
            recording(recorder):
        with span("bench.mc"):
            network = make_traingate(2)
            verifier = Verifier(network)
            verifier.check(EF(LocationIs("Train(0)", "Cross")))
            verifier.deadlock_free()
        with span("bench.mdp"):
            digital = build_digital_mdp(brp.make_brp(16, 2, 1))
            targets = digital.states_where(brp.not_success)
            float(reachability_probability(digital.mdp, targets,
                                           maximize=True)[0])
        with span("bench.smc", runs=smc_runs):
            probability_estimate(network, cross_predicate(0),
                                 horizon=100, runs=smc_runs, rng=42)
        with span("bench.bip"):
            engine = BIPEngine(make_dala(with_controller=True,
                                         counter_bound=4), rng=3)
            engine.run(max_steps=400)

    report = Report(collector, tracer, profile=profiler, flight=recorder,
                    meta={"benchmark": "engines",
                          "quick": bool(args.quick),
                          "smc_runs": smc_runs})
    return _finish(report, args, "bench-engines")


if __name__ == "__main__":
    raise SystemExit(main())
