"""Deterministic seed streams and the one seeded-batch loop.

The contract that makes parallel SMC reproducible: a master
:class:`~repro.core.rng.RandomSource` deterministically yields one child
seed *per run* (:meth:`~repro.core.rng.RandomSource.spawn_seed`), runs
are numbered by their position in that stream, and batching merely
partitions the stream.  Estimates aggregated in run order are therefore
bit-identical for any executor and worker count.

:func:`seeded_batches` is the only place that turns a campaign's runs
into executor tasks; how many runs a task carries is the executor's
decision (:meth:`~repro.runtime.Executor.batch_size_for`).
"""

from __future__ import annotations

from itertools import islice

from ..core.rng import RandomSource, ensure_rng
from ..obs import log
from .executor import SerialExecutor


def seed_stream(rng_or_seed, n):
    """The first ``n`` per-run seeds spawned from a master source.

    Equals ``[rng.spawn().seed for _ in range(n)]``, without building
    the children.
    """
    spawn_seed = ensure_rng(rng_or_seed).spawn_seed
    return [spawn_seed() for _ in range(n)]


def _resolve(executor):
    return SerialExecutor() if executor is None else executor


def runs_per_task(executor, runs):
    """How many runs of a ``runs``-run campaign one task carries on
    ``executor`` (``None`` means :class:`SerialExecutor`) — what
    :func:`seeded_batches` uses unless told a pinned size."""
    return _resolve(executor).batch_size_for(runs)


def seeded_batches(fn, args, seeds, executor=None, size=None,
                   per_run=None):
    """Run a seeded campaign as tasks ``fn(*args, chunk)``, where
    ``chunk`` is the next run of consecutive per-run ``seeds``; yield the
    task results in run order.

    ``executor`` ``None`` means :class:`SerialExecutor`; a fault policy,
    if any, is the executor's own.  A task carries
    ``runs_per_task(executor, len(seeds))`` runs unless ``size`` fixes
    it.  ``seeds`` may be a lazy iterator (then ``size`` is required):
    each task then draws its chunk only when the executor pulls it, so
    a consumer that closes this generator early never draws the rest.
    ``per_run`` is an optional sequence aligned with ``seeds`` (start
    states, say), cut on the same boundaries and passed just before
    the seed chunk, which stays the task's last argument so
    :func:`~repro.runtime.task_seed` finds it.
    """
    if size is None:
        size = runs_per_task(executor, len(seeds))
    seeds = iter(seeds)
    extra = iter(per_run) if per_run is not None else None

    def tasks():
        while chunk := list(islice(seeds, size)):
            if extra is None:
                yield (*args, chunk)
            else:
                yield (*args, list(islice(extra, len(chunk))), chunk)

    yield from _resolve(executor).imap(fn, tasks())


def run_batch(run_once, seeds):
    """Evaluate ``run_once(RandomSource(seed))`` as a Bernoulli outcome
    for each seed.  Module-level so executors can ship it to workers;
    ``run_once`` itself must be picklable (a module-level function or a
    :func:`functools.partial` over one).

    With a flight recorder active (coordinator-side when run serially,
    the fresh worker-side recorder when shipped by
    :class:`~repro.runtime.ParallelExecutor`), each batch logs one
    ``smc.batch`` debug event.  Batches are pure functions of their
    seeds and recordings merge in task order, so the logical event
    sequence is identical for serial, parallel, and fault-recovered
    execution.
    """
    outcomes = [bool(run_once(RandomSource(seed))) for seed in seeds]
    log("smc.batch", level="debug", runs=len(outcomes),
        successes=sum(outcomes))
    return outcomes


def sample_batch(run_once, seeds):
    """Like :func:`run_batch` but keeps the raw per-run values (for
    mean/quantile estimation)."""
    samples = [run_once(RandomSource(seed)) for seed in seeds]
    log("smc.batch", level="debug", runs=len(samples))
    return samples
