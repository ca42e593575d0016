"""Fault-tolerance tests (:mod:`repro.runtime.faults`).

The load-bearing property mirrors the runtime suite's: because tasks
are pure functions of their spawn-keyed seed chunks, a campaign that
loses workers, suffers raising tasks, or hangs past its timeout must —
after recovery — produce **bit-identical estimates and identical
logical metric totals** to a fault-free serial run.

The process-pool tests honour ``REPRO_MP_START`` (``fork`` / ``spawn``)
so CI can exercise both multiprocessing start methods; spawn is the
one that catches pickling bugs in the fault machinery itself.
"""

import importlib
import json
import math
import os
import pathlib

import pytest

from repro.core import AnalysisError, TaskError
from repro.obs.metrics import Collector, collecting
from repro.runtime import (
    Checkpoint,
    FaultInjector,
    FaultPolicy,
    InjectedFault,
    ParallelExecutor,
    SerialExecutor,
    task_seed,
)
from repro.smc import (
    estimate_mean,
    estimate_probability,
    fixed_effort_splitting,
    sprt,
)

from doubles import FixedBatches

MP_START = os.environ.get("REPRO_MP_START") or None
SPRT_MODULE = importlib.import_module("repro.smc.sprt")


@pytest.fixture(scope="module")
def pool2():
    with ParallelExecutor(workers=2, mp_context=MP_START) as executor:
        yield executor


def faulty_pool(policy):
    """A fresh two-worker pool that recovers under ``policy``."""
    return ParallelExecutor(workers=2, mp_context=MP_START, policy=policy)


# Module-level run closures (picklable).

def biased_coin(rng):
    return rng.random() < 0.3


def uniform_sample(rng):
    return rng.uniform(0.0, 10.0)


def snapshot_probability(executor, checkpoint=None, runs=200):
    collector = Collector("campaign")
    with collecting(collector):
        estimate = estimate_probability(
            biased_coin, runs=runs, rng=13,
            executor=FixedBatches(10, executor), checkpoint=checkpoint)
    return estimate, collector.snapshot()["counters"]


def retransmission_level(_names, valuation, _clocks):
    """BRP importance function: the retransmission counter."""
    return min(valuation.get("rc", 0), 1)


def logical(counters):
    return {key: value for key, value in counters.items()
            if key.startswith("smc.")}


def fail_on_two(x, seeds):
    if x == 2:
        raise ValueError("boom")
    return x


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(AnalysisError):
            FaultPolicy(timeout=0)

    @pytest.mark.parametrize("options", [
        {"timeout": math.nan}, {"timeout": math.inf},
        {"max_retries": math.nan}, {"max_retries": 1.5},
    ], ids=["timeout-nan", "timeout-inf", "retries-nan", "retries-1.5"])
    def test_rejects_values_it_cannot_honour(self, options):
        # A NaN timeout declares every task hung; an infinite one
        # overflows the pool's result wait.
        with pytest.raises(AnalysisError):
            FaultPolicy(**options)

    def test_task_seed_finds_seed_chunk(self):
        assert task_seed((biased_coin, [17, 18, 19])) == 17
        assert task_seed(("model", (), [5])) == 5
        assert task_seed(("no", "seeds", ())) is None

    def test_injector_fires_on_first_attempt_only(self):
        injector = FaultInjector(raises={2})
        with pytest.raises(InjectedFault):
            injector(2, 0, in_worker=False)
        injector(2, 1, in_worker=False)  # replay: no fire
        injector(3, 0, in_worker=False)  # other index: no fire


class TestSerialRecovery:
    def test_retry_recovers_injected_raise(self):
        policy = FaultPolicy(max_retries=2,
                             injector=FaultInjector(raises={3, 5}))
        reference, _ = snapshot_probability(SerialExecutor())
        estimate, counters = snapshot_probability(
            SerialExecutor(policy=policy))
        assert (estimate.successes, estimate.runs) == \
            (reference.successes, reference.runs)
        assert counters["runtime.retries"] == 2

    def test_serial_kill_injection_surfaces_as_fault(self):
        # No worker to kill: the injector raises instead, and the
        # policy recovers it like any task fault.
        policy = FaultPolicy(max_retries=1,
                             injector=FaultInjector(kill={2}))
        reference, _ = snapshot_probability(SerialExecutor())
        estimate, _ = snapshot_probability(SerialExecutor(policy=policy))
        assert estimate.successes == reference.successes

    def test_exhausted_fail_raises_task_error(self):
        def always_raise(rng):
            raise ValueError("boom")

        policy = FaultPolicy(max_retries=1)
        with pytest.raises(TaskError) as excinfo:
            list(SerialExecutor(policy=policy).imap(
                lambda seed: always_raise(seed), [(1,)]))
        assert excinfo.value.index == 0


class TestParallelRecovery:
    def test_kill_and_raise_equivalence(self):
        """The acceptance scenario: a worker killed mid-campaign plus
        two raising tasks must not change the estimate or any logical
        metric total relative to a fault-free serial run."""
        reference, ref_counters = snapshot_probability(SerialExecutor())
        policy = FaultPolicy(
            max_retries=3, injector=FaultInjector(kill={1}, raises={3, 5}))
        with faulty_pool(policy) as pool:
            estimate, counters = snapshot_probability(pool)
        assert (estimate.successes, estimate.runs, estimate.low,
                estimate.high) == (reference.successes, reference.runs,
                                   reference.low, reference.high)
        assert logical(counters) == logical(ref_counters)
        assert counters["runtime.tasks"] == ref_counters["runtime.tasks"]
        assert counters["runtime.pool_rebuilds"] >= 1
        assert counters["runtime.retries"] >= 1

    def test_hang_recovery_by_timeout(self):
        reference, _ = snapshot_probability(SerialExecutor(), runs=100)
        policy = FaultPolicy(timeout=2.0, max_retries=2,
                             injector=FaultInjector(hang={2}))
        with faulty_pool(policy) as pool:
            estimate, counters = snapshot_probability(pool, runs=100)
        assert (estimate.successes, estimate.runs) == \
            (reference.successes, reference.runs)
        assert counters["runtime.timeouts"] >= 1
        assert counters["runtime.pool_rebuilds"] >= 1

    def test_replay_preserves_estimate_without_collector(self):
        # Fault recovery must not depend on the observability layer.
        reference = estimate_probability(biased_coin, runs=200, rng=13,
                                         executor=FixedBatches(10))
        policy = FaultPolicy(max_retries=2,
                             injector=FaultInjector(raises={4}))
        with faulty_pool(policy) as pool:
            estimate = estimate_probability(biased_coin, runs=200, rng=13,
                                            executor=FixedBatches(10, pool))
        assert (estimate.successes, estimate.runs) == \
            (reference.successes, reference.runs)

    def test_exhausted_fail_carries_index_and_seed(self):
        policy = FaultPolicy(max_retries=0,
                             injector=FaultInjector(raises={2}))
        with faulty_pool(policy) as pool, \
                pytest.raises(TaskError) as excinfo:
            snapshot_probability(pool)
        # The retry loop replays the injected index once (attempt 1
        # does not re-fire), so exhaustion at max_retries=0 blames the
        # injected task.
        assert excinfo.value.index == 2
        assert excinfo.value.seed is not None

    def test_sprt_with_faults_matches_verdict(self, monkeypatch):
        monkeypatch.setattr(SPRT_MODULE, "CHUNK_RUNS", 16)
        policy = FaultPolicy(max_retries=2,
                             injector=FaultInjector(raises={1}))
        reference = sprt(biased_coin, theta=0.5, rng=7,
                         executor=SerialExecutor())
        with faulty_pool(policy) as pool:
            verdict = sprt(biased_coin, theta=0.5, rng=7, executor=pool)
        assert bool(verdict) == bool(reference) is False


class TestFailureDecision:
    """Serial and pooled executors take one failure decision, and the
    entry points keep every task's seed chunk where it can be found."""

    def test_unrecovered_task_raises_task_error_under_both(self, pool2):
        tasks = [(i, [1000 + i]) for i in range(4)]
        for executor in (SerialExecutor(), pool2):
            with pytest.raises(TaskError) as excinfo:
                list(executor.imap(fail_on_two, tasks))
            assert (excinfo.value.index, excinfo.value.seed) == (2, 1002)
            assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_splitting_task_error_carries_its_first_seed(self, parallel):
        from repro.core import RandomSource
        from repro.models import brp
        from repro.runtime import Spec, seed_stream

        policy = FaultPolicy(max_retries=0,
                             injector=FaultInjector(raises={2}))
        inner = faulty_pool(policy) if parallel \
            else SerialExecutor(policy=policy)
        with inner, pytest.raises(TaskError) as excinfo:
            fixed_effort_splitting(
                Spec(brp.make_brp, 8, 1, 1), retransmission_level,
                max_level=1, runs_per_stage=60, rng=11,
                executor=FixedBatches(10, inner))
        # Stage 1 draws its 60 start states, then its 60 run seeds; task
        # 2 runs seeds 20..29.
        master = RandomSource(11)
        for _ in range(60):
            master.randint(0, 0)
        seeds = seed_stream(master, 60)
        assert (excinfo.value.index, excinfo.value.seed) == (2, seeds[20])

    def test_serial_sprt_draws_seeds_one_chunk_per_task(self):
        from repro.core import RandomSource

        master = RandomSource(7)
        result = sprt(biased_coin, theta=0.5, rng=master)
        assert result.runs % 32 != 0
        # Only the chunks the executor pulled were drawn: the next
        # child is number ceil(runs / 32) * 32.
        assert master.spawn().spawn_key == (-(-result.runs // 32) * 32,)


#: Checkpoint documents that match their campaign's fingerprint but
#: cannot be resumed from, each with the entry point that saved it.
DAMAGES = {
    "no-state": (estimate_probability,
                 lambda document: document.pop("state")),
    "no-successes": (estimate_probability,
                     lambda document: document["state"].pop("successes")),
    "metrics-list": (estimate_probability,
                     lambda document: document.update(metrics=[])),
    "counters-list": (estimate_probability, lambda document:
                      document.update(metrics={"counters": []})),
    "successes-string": (estimate_probability, lambda document:
                         document["state"].update(successes="7")),
    "done-negative": (estimate_probability, lambda document:
                      document["state"].update(done=-5)),
    "samples-string": (estimate_mean, lambda document:
                       document["state"].update(samples="7")),
    "samples-of-strings": (estimate_mean, lambda document:
                           document["state"].update(samples=[
                               str(v) for v in document["state"]["samples"]])),
}
RUN_ONCE = {estimate_probability: biased_coin, estimate_mean: uniform_sample}


class TestCheckpoint:
    def fingerprinted(self, path, every=2):
        return Checkpoint(path, every=every)

    def test_resume_is_bit_identical(self, pool2, tmp_path):
        path = str(tmp_path / "campaign.json")
        reference, ref_counters = snapshot_probability(SerialExecutor())
        # First attempt dies mid-campaign under a fail-fast policy.
        policy = FaultPolicy(max_retries=0,
                             injector=FaultInjector(raises={12}))
        with faulty_pool(policy) as pool, pytest.raises(TaskError):
            snapshot_probability(pool, checkpoint=self.fingerprinted(path))
        saved = json.loads(pathlib.Path(path).read_text())
        assert 0 < saved["state"]["batch"] < 20
        # Resume: finishes the remaining batches and matches serial —
        # estimate and logical totals both.
        estimate, counters = snapshot_probability(
            pool2, checkpoint=self.fingerprinted(path))
        assert (estimate.successes, estimate.runs, estimate.low,
                estimate.high) == (reference.successes, reference.runs,
                                   reference.low, reference.high)
        assert logical(counters) == logical(ref_counters)
        assert not os.path.exists(path), "cleared on completion"

    def test_mean_resume_matches_samples(self, pool2, tmp_path):
        path = str(tmp_path / "mean.json")
        reference = estimate_mean(uniform_sample, runs=120, rng=7,
                                  executor=FixedBatches(10))
        policy = FaultPolicy(max_retries=0,
                             injector=FaultInjector(raises={7}))
        with faulty_pool(policy) as pool, pytest.raises(TaskError):
            estimate_mean(uniform_sample, runs=120, rng=7,
                          executor=FixedBatches(10, pool),
                          checkpoint=Checkpoint(path, every=1))
        resumed = estimate_mean(uniform_sample, runs=120, rng=7,
                                executor=FixedBatches(10, pool2),
                                checkpoint=Checkpoint(path, every=1))
        assert resumed.samples == reference.samples

    def test_fingerprint_mismatch_restarts(self, pool2, tmp_path):
        path = str(tmp_path / "stale.json")
        policy = FaultPolicy(max_retries=0,
                             injector=FaultInjector(raises={5}))
        with faulty_pool(policy) as pool, pytest.raises(TaskError):
            snapshot_probability(pool, checkpoint=Checkpoint(path, every=1))
        # Different campaign parameters: the stale checkpoint must be
        # ignored, not half-applied.
        reference = estimate_probability(biased_coin, runs=200, rng=99,
                                         executor=FixedBatches(10))
        estimate = estimate_probability(biased_coin, runs=200, rng=99,
                                        executor=FixedBatches(10, pool2),
                                        checkpoint=Checkpoint(path,
                                                              every=1))
        assert estimate.successes == reference.successes

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        path = str(tmp_path / "corrupt.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        assert Checkpoint(path).load({"kind": "x"}) is None
        with open(path, "w") as handle:
            json.dump({"schema": "other/1"}, handle)
        assert Checkpoint(path).load({"kind": "x"}) is None

    @pytest.mark.parametrize("damage", DAMAGES, ids=list(DAMAGES))
    def test_malformed_checkpoint_restarts(self, tmp_path, damage):
        path = tmp_path / "damaged.json"
        estimate, damage = DAMAGES[damage]
        run_once = RUN_ONCE[estimate]
        fail = FaultPolicy(max_retries=0, injector=FaultInjector(raises={1}))
        with pytest.raises(TaskError):
            estimate(run_once, 100, rng=5,
                     executor=SerialExecutor(policy=fail),
                     checkpoint=Checkpoint(path))
        document = json.loads(path.read_text())
        damage(document)
        path.write_text(json.dumps(document))
        collector = Collector("resumed")
        with collecting(collector):
            resumed = estimate(run_once, 100, rng=5,
                               checkpoint=Checkpoint(path))
        reference = estimate(run_once, 100, rng=5)
        assert (resumed.runs, resumed.mean) == (reference.runs, reference.mean)
        assert collector.snapshot()["counters"]["smc.runs"] == 100

    def test_save_load_clear_roundtrip(self, tmp_path):
        path = str(tmp_path / "roundtrip.json")
        checkpoint = Checkpoint(path, every=3)
        assert [checkpoint.due(n) for n in (1, 2, 3, 4, 6)] == \
            [False, False, True, False, True]
        fingerprint = {"kind": "test", "runs": 10}
        checkpoint.save(fingerprint, {"batch": 4},
                        metrics={"counters": {"smc.runs": 40}})
        loaded = checkpoint.load(fingerprint)
        assert loaded["state"] == {"batch": 4}
        assert loaded["metrics"]["counters"]["smc.runs"] == 40
        assert checkpoint.load({"kind": "other"}) is None
        checkpoint.clear()
        checkpoint.clear()  # idempotent
        assert not os.path.exists(path)

    def test_default_executor_checkpoints_and_resumes(self, tmp_path):
        """``checkpoint`` needs no explicit executor: the default serial
        campaign (200 runs as tasks of 64/64/64/8 runs) resumes exactly
        where a serial executor with a fault policy left off, and that
        executor recovers too."""
        path = str(tmp_path / "default.json")

        def campaign(**options):
            collector = Collector("campaign")
            with collecting(collector):
                estimate = estimate_probability(biased_coin, runs=200,
                                                rng=13, **options)
            return estimate, collector.snapshot()["counters"]

        reference, ref_counters = campaign()
        retry = FaultPolicy(max_retries=1,
                            injector=FaultInjector(raises={1}))
        recovered, _ = campaign(executor=SerialExecutor(policy=retry))
        assert recovered.successes == reference.successes
        fail = FaultPolicy(max_retries=0,
                           injector=FaultInjector(raises={2}))
        with pytest.raises(TaskError):
            campaign(executor=SerialExecutor(policy=fail),
                     checkpoint=Checkpoint(path, every=1))
        state = json.loads(pathlib.Path(path).read_text())["state"]
        assert (state["batch"], state["done"]) == (2, 128)
        resumed, counters = campaign(checkpoint=Checkpoint(path, every=1))
        assert (resumed.successes, resumed.runs, resumed.low,
                resumed.high) == (reference.successes, reference.runs,
                                  reference.low, reference.high)
        assert logical(counters) == logical(ref_counters)
        assert not os.path.exists(path), "cleared on completion"
