"""Tests for the parallel simulation runtime (:mod:`repro.runtime`).

The load-bearing property: for any SMC entry point, a ``(seed, n_runs)``
pair yields bit-identical results for the default call (no executor),
:class:`SerialExecutor` and :class:`ParallelExecutor` with any worker
count, and for any batch size an executor picks, because all
randomness flows through the master source's deterministic spawn
stream and results are aggregated in run order.

The process-pool tests honour ``REPRO_MP_START`` (``fork`` / ``spawn``)
so CI can check the serial == parallel equality under both
multiprocessing start methods.
"""

import functools
import importlib
import os

import pytest

from repro.core import AnalysisError, RandomSource
from repro.models import brp_modest as bm
from repro.models.traingate import cross_predicate, make_traingate
from repro.modest.toolset import Emax, Pmax, modes
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    Spec,
    run_batch,
    seed_stream,
    seeded_batches,
    task_seed,
)
from repro.smc import (
    estimate_mean,
    estimate_probability,
    expected_value,
    first_passage_cdfs,
    probability_at_least,
    probability_estimate,
)
from repro.smc.stochastic import network_simulator

from doubles import FixedBatches

TRAINGATE = Spec(make_traingate, 3)
CROSS0 = Spec(cross_predicate, 0)
MP_START = os.environ.get("REPRO_MP_START") or None
SPRT_MODULE = importlib.import_module("repro.smc.sprt")


@pytest.fixture(scope="module")
def pool2():
    with ParallelExecutor(workers=2, mp_context=MP_START) as executor:
        yield executor


@pytest.fixture(scope="module")
def pool4():
    with ParallelExecutor(workers=4, mp_context=MP_START) as executor:
        yield executor


# Module-level run closures (picklable) for the generic estimators.

def biased_coin(rng):
    return rng.random() < 0.25


def uniform_sample(rng):
    return rng.uniform(0.0, 10.0)


def task_args(*args):
    """A task that returns its own arguments (module-level, picklable)."""
    return args


class TestSpec:
    def test_build_and_cache(self):
        spec = Spec(make_traingate, 2)
        network = spec.build()
        assert network.location_vector_names(
            network.initial_locations())[0] == "Safe"
        from repro.runtime import build_cached
        assert build_cached(spec) is build_cached(spec)

    def test_string_target(self):
        spec = Spec("repro.models.traingate:make_traingate", 2)
        assert spec == Spec(make_traingate, 2)
        assert hash(spec) == hash(Spec(make_traingate, 2))

    def test_rejects_locals(self):
        def local_factory():
            return None

        with pytest.raises(AnalysisError):
            Spec(local_factory)

    def test_rejects_malformed_string(self):
        with pytest.raises(AnalysisError):
            Spec("no_colon_here")

    def test_repr_names_target(self):
        assert "make_traingate" in repr(Spec(make_traingate, 3))


class TestSeedStreams:
    def test_spawn_records_key(self):
        parent = RandomSource(99)
        children = [parent.spawn() for _ in range(3)]
        assert [c.spawn_key for c in children] == [(0,), (1,), (2,)]
        grandchild = children[1].spawn()
        assert grandchild.spawn_key == (1, 0)
        assert "spawn_key=(1, 0)" in repr(grandchild)

    def test_seed_stream_matches_spawn(self):
        parent = RandomSource(123)
        assert seed_stream(123, 4) == [parent.spawn().seed
                                       for _ in range(4)]

    def test_same_master_seed_same_stream(self):
        assert seed_stream(7, 10) == seed_stream(7, 10)
        assert seed_stream(7, 10) != seed_stream(8, 10)

    def test_cross_process_determinism(self, pool2):
        """The regression the spawn-key fix guards: a worker process
        spawning from the same master seed sees the same child seeds."""
        remote, = pool2.map(seed_stream, [(123, 6)])
        assert remote == seed_stream(123, 6)


class TestSeededBatches:
    """:func:`seeded_batches`, the one loop that turns a campaign's runs
    into executor tasks."""

    def test_chunks_follow_the_executor_batch_size(self):
        tasks = list(seeded_batches(task_args, ("a",), [1, 2, 3, 4, 5],
                                    FixedBatches(2)))
        assert tasks == [("a", [1, 2]), ("a", [3, 4]), ("a", [5])]
        assert list(seeded_batches(task_args, (), [], FixedBatches(3))) \
            == []

    def test_default_executor_is_serial(self):
        chunks = [chunk for chunk, in seeded_batches(task_args, (),
                                                     list(range(150)))]
        assert [len(c) for c in chunks] == [64, 64, 22]
        assert sum(chunks, []) == list(range(150))

    def test_size_overrides_the_executor(self):
        chunks = list(seeded_batches(task_args, (), list(range(7)),
                                     FixedBatches(2), size=3))
        assert chunks == [([0, 1, 2],), ([3, 4, 5],), ([6],)]

    def test_lazy_seeds_draw_one_chunk_per_pulled_task(self):
        drawn = []

        def seeds():
            for i in range(1000):
                drawn.append(i)
                yield i

        results = seeded_batches(task_args, (), seeds(), size=4)
        assert next(results) == ([0, 1, 2, 3],)
        assert next(results) == ([4, 5, 6, 7],)
        results.close()
        assert len(drawn) == 8

    def test_per_run_items_ride_before_the_seed_chunk(self):
        tasks = list(seeded_batches(task_args, ("m",), [10, 11, 12],
                                    FixedBatches(2),
                                    per_run=["x", "y", "z"]))
        assert tasks == [("m", ["x", "y"], [10, 11]),
                         ("m", ["z"], [12])]
        assert [task_seed(task) for task in tasks] == [10, 12]

    def test_parallel_matches_serial(self, pool2):
        seeds = seed_stream(5, 40)
        serial = list(seeded_batches(run_batch, (biased_coin,), seeds))
        parallel = list(seeded_batches(run_batch, (biased_coin,), seeds,
                                       pool2))
        assert sum(parallel, []) == sum(serial, [])
        assert [len(b) for b in parallel] == [5] * 8


class TestExecutors:
    def test_serial_map_order(self):
        ex = SerialExecutor()
        assert ex.map(run_batch, [(biased_coin, [1, 2]),
                                  (biased_coin, [3])]) == [
            run_batch(biased_coin, [1, 2]), run_batch(biased_coin, [3])]

    def test_parallel_map_order(self, pool4):
        seeds = seed_stream(5, 40)
        tasks = [(biased_coin, seeds[i:i + 10]) for i in range(0, 40, 10)]
        assert pool4.map(run_batch, tasks) == \
            SerialExecutor().map(run_batch, tasks)

    def test_imap_is_lazy(self):
        consumed = []

        def tasks():
            for i in range(100):
                consumed.append(i)
                yield (biased_coin, [i])

        ex = SerialExecutor()
        results = ex.imap(run_batch, tasks())
        next(results)
        next(results)
        results.close()
        assert len(consumed) == 2

    def test_parallel_imap_early_stop(self, pool2):
        """Closing the generator stops task consumption (the SPRT
        early-stopping mechanism); only the in-flight window runs."""
        drawn = []

        def tasks():
            for i in range(10000):
                drawn.append(i)
                yield (biased_coin, [i])

        results = pool2.imap(run_batch, tasks())
        next(results)
        results.close()
        assert len(drawn) <= 2 * pool2.inflight

    def test_batch_size_for(self):
        # Serial batches are capped at 64 runs, so a serial campaign of
        # any size samples its time series every 64 runs.
        assert SerialExecutor().batch_size_for(100) == 64
        assert SerialExecutor().batch_size_for(10 ** 6) == 64
        assert SerialExecutor().batch_size_for(1) == 1
        assert ParallelExecutor(workers=4).batch_size_for(100) == 7

    def test_workers_validation(self):
        with pytest.raises(AnalysisError):
            ParallelExecutor(workers=0)


class TestGenericEstimators:
    def test_estimate_probability_equivalence(self, pool2, pool4):
        kwargs = dict(runs=300, rng=13)
        serial = estimate_probability(biased_coin, executor=SerialExecutor(),
                                      **kwargs)
        for pool in (None, pool2, pool4):
            par = estimate_probability(biased_coin, executor=pool, **kwargs)
            assert (par.successes, par.runs, par.low, par.high) == \
                (serial.successes, serial.runs, serial.low, serial.high)
        assert serial.low < 0.25 < serial.high

    def test_batch_size_invariance(self, pool2):
        reference = estimate_probability(biased_coin, runs=100, rng=1,
                                         executor=SerialExecutor())
        for size in (1, 7, 100):
            again = estimate_probability(biased_coin, runs=100, rng=1,
                                         executor=FixedBatches(size, pool2))
            assert again.successes == reference.successes

    def test_estimate_mean_equivalence(self, pool2):
        serial = estimate_mean(uniform_sample, runs=200, rng=2,
                               executor=SerialExecutor())
        default = estimate_mean(uniform_sample, runs=200, rng=2)
        par = estimate_mean(uniform_sample, runs=200, rng=2, executor=pool2)
        assert default.samples == serial.samples == par.samples


class TestTraingateEquivalence:
    """The acceptance-criterion tests: identical ProbabilityEstimate and
    SPRT verdicts for the default call, serial and 2/4-worker parallel
    execution on the train-gate model."""

    def test_probability_estimate(self, pool2, pool4):
        # Horizon 20: train 0 crosses in about a third of the runs.
        kwargs = dict(horizon=20, runs=60, rng=42)
        serial = probability_estimate(TRAINGATE, CROSS0,
                                      executor=SerialExecutor(), **kwargs)
        for pool in (None, pool2, pool4):
            par = probability_estimate(TRAINGATE, CROSS0, executor=pool,
                                       **kwargs)
            assert (par.successes, par.runs, par.low, par.high) == \
                (serial.successes, serial.runs, serial.low, serial.high)

    def test_sprt_verdict(self, pool2, pool4):
        kwargs = dict(theta=0.5, horizon=20, indifference=0.1, rng=7)
        serial = probability_at_least(TRAINGATE, CROSS0,
                                      executor=SerialExecutor(), **kwargs)
        for pool in (None, pool2, pool4):
            par = probability_at_least(TRAINGATE, CROSS0, executor=pool,
                                       **kwargs)
            assert (par.accept, par.runs, par.successes) == \
                (serial.accept, serial.runs, serial.successes)
        assert not serial.accept  # P(cross by t = 20) is about 1/3

    def test_sprt_chunk_invariance(self, pool2, monkeypatch):
        serial = probability_at_least(TRAINGATE, CROSS0, theta=0.5,
                                      horizon=100, indifference=0.1, rng=7,
                                      executor=SerialExecutor())
        for size in (1, 5, 64):
            monkeypatch.setattr(SPRT_MODULE, "CHUNK_RUNS", size)
            again = probability_at_least(TRAINGATE, CROSS0, theta=0.5,
                                         horizon=100, indifference=0.1,
                                         rng=7, executor=pool2)
            assert (again.accept, again.runs) == (serial.accept,
                                                  serial.runs)

    def test_expected_value_matches_default_serial(self, pool2):
        """Live objects by default, specs through executors: every run
        sees the same spawned seed either way."""
        default = expected_value(make_traingate(3), cross_predicate(0),
                                 horizon=50, runs=40, rng=4)
        serial = expected_value(TRAINGATE, CROSS0, horizon=50, runs=40,
                                rng=4, executor=SerialExecutor())
        par = expected_value(TRAINGATE, CROSS0, horizon=50, runs=40,
                             rng=4, executor=pool2)
        assert default.samples == serial.samples == par.samples

    def test_first_passage_cdfs_equivalence(self, pool2):
        factory = functools.partial(network_simulator, TRAINGATE)
        predicates = {i: Spec(cross_predicate, i) for i in range(3)}
        grid = [20, 50, 90]
        kwargs = dict(horizon=100, runs=40, grid=grid, rng=3)
        default = first_passage_cdfs(factory, predicates, **kwargs)
        serial = first_passage_cdfs(factory, predicates,
                                    executor=SerialExecutor(), **kwargs)
        par = first_passage_cdfs(factory, predicates, executor=pool2,
                                 **kwargs)
        assert default == serial == par


class TestModesEquivalence:
    def test_modes_parallel_matches_serial(self, pool2):
        source = bm.brp_modest_source(2, 1, 1)
        props = [Pmax("P1", bm.not_success), Emax("E", bm.reported)]
        serial = modes(source, props, runs=60, rng=6,
                       executor=SerialExecutor())
        for executor in (None, pool2):
            other = modes(source, props, runs=60, rng=6, executor=executor)
            assert (serial["P1"].successes, serial["P1"].runs) == \
                (other["P1"].successes, other["P1"].runs)
            assert serial["E"].samples == other["E"].samples
        assert 3.0 < serial["E"].mean < 6.0


class TestSplittingEquivalence:
    def test_splitting_parallel_matches_serial(self, pool2):
        from repro.models import brp
        from repro.smc import fixed_effort_splitting

        model = Spec(brp.make_brp, 8, 1, 1)
        serial = fixed_effort_splitting(
            model, retransmission_level, max_level=1, runs_per_stage=60,
            rng=11, executor=SerialExecutor())
        for executor in (None, pool2):
            other = fixed_effort_splitting(
                model, retransmission_level, max_level=1,
                runs_per_stage=60, rng=11, executor=executor)
            assert serial.probability == other.probability
            assert serial.stage_probabilities == \
                other.stage_probabilities
            assert serial.total_runs == other.total_runs


def retransmission_level(_names, valuation, _clocks):
    """BRP importance function: the retransmission counter."""
    return min(valuation.get("rc", 0), 1)


def double(value):
    return 2 * value


class TestExecutorEdgePaths:
    def test_close_is_idempotent(self):
        executor = ParallelExecutor(workers=2)
        assert list(executor.map(double, [(i,) for i in range(4)])) == \
            [0, 2, 4, 6]
        executor.close()
        executor.close()
        # A closed executor lazily rebuilds its pool on next use.
        assert list(executor.map(double, [(5,)])) == [10]
        executor.close()

    def test_generator_close_mid_stream(self, pool2):
        results = pool2.imap(double, [(i,) for i in range(50)])
        assert next(results) == 0
        assert next(results) == 2
        results.close()
        # The executor survives an abandoned stream: in-flight futures
        # are drained, not leaked, and the pool stays usable.
        assert list(pool2.map(double, [(7,)])) == [14]

    def test_zero_tasks(self, pool2):
        assert list(pool2.imap(double, [])) == []
        assert list(SerialExecutor().imap(double, [])) == []

    def test_parallel_without_collector(self, pool2):
        # No active collector: results flow through the unwrapped fast
        # path (no metrics, no worker-side wrapping).
        from repro.obs.metrics import active

        assert active() is None
        assert list(pool2.map(double, [(i,) for i in range(8)])) == \
            [2 * i for i in range(8)]
