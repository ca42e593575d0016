"""Deterministic seed streams and batched run helpers.

The contract that makes parallel SMC reproducible: a master
:class:`~repro.core.rng.RandomSource` deterministically yields one child
seed *per run* (via :meth:`~repro.core.rng.RandomSource.spawn`), runs
are numbered by their position in that stream, and batching merely
partitions the stream.  Estimates aggregated in run order are therefore
bit-identical for any executor, worker count and batch size.
"""

from __future__ import annotations

from ..core.rng import RandomSource, ensure_rng
from ..obs import log


def seed_stream(rng_or_seed, n):
    """The first ``n`` per-run seeds spawned from a master source.

    Equals ``[rng.spawn().seed for _ in range(n)]``.
    """
    rng = ensure_rng(rng_or_seed)
    return [rng.spawn().seed for _ in range(n)]


def spawn_seeds(master_seed, n):
    """Module-level (hence picklable) variant of :func:`seed_stream`
    starting from a fresh source — used to check, cross-process, that
    the same master seed yields the same spawned streams everywhere."""
    return seed_stream(RandomSource(master_seed), n)


def batched(sequence, size):
    """Split ``sequence`` into consecutive lists of at most ``size``."""
    if size <= 0:
        raise ValueError(f"batch size must be positive, got {size}")
    return [list(sequence[i:i + size])
            for i in range(0, len(sequence), size)]


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
