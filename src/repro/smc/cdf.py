"""Cumulative distribution estimation over simulation runs.

Regenerates plots like the paper's Fig. 4: the empirical cumulative
probability, over time, of a time-bounded reachability event — e.g.
``Pr[<=100](<> Train(i).Cross)`` for every train, superposed.
"""

from __future__ import annotations

import math

from ..core.errors import AnalysisError
from ..obs import checkpoint, incr, span


def empirical_cdf(samples, grid):
    """Fraction of ``samples`` (first-passage times; ``inf`` = never)
    at or below each grid point."""
    if not samples:
        raise AnalysisError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    out = []
    idx = 0
    for t in grid:
        while idx < n and ordered[idx] <= t:
            idx += 1
        out.append(idx / n)
    return out


class FirstPassageRecorder:
    """Observer recording when each watched predicate first becomes true.

    Use one recorder per run; ``times[key]`` is the first time predicate
    ``key`` held (``inf`` if never).  Only the predicates still pending
    are evaluated.
    """

    def __init__(self, predicates):
        self.predicates = dict(predicates)
        self.times = {key: math.inf for key in self.predicates}
        self.pending = list(self.predicates.items())

    def __call__(self, time, names, valuation, clocks):
        seen = [entry for entry in self.pending
                if entry[1](names, valuation, clocks)]
        if seen:
            for key, _predicate in seen:
                self.times[key] = time
            self.pending = [entry for entry in self.pending
                            if entry not in seen]

    def all_seen(self):
        return not self.pending


def first_passage_batch(simulator_factory, predicates, horizon, seeds):
    """First-passage times for one batch of seeded runs.

    Module-level (hence picklable) worker entry point: returns one
    ``{key: time}`` dict per seed, in seed order.  Predicate values may
    be :class:`~repro.runtime.Spec` references, resolved here.
    """
    from .stochastic import resolve_predicate
    from ..core.rng import RandomSource

    resolved = {key: resolve_predicate(p) for key, p in predicates.items()}
    out = []
    for seed in seeds:
        simulator = simulator_factory(RandomSource(seed))
        recorder = FirstPassageRecorder(resolved)
        simulator.run(
            horizon, observer=recorder,
            stop=lambda t, n, v, c: recorder.all_seen())
        out.append(dict(recorder.times))
    return out


def first_passage_cdfs(simulator_factory, predicates, horizon, runs, grid,
                       rng=None, executor=None, fault_policy=None):
    """Estimate, for each predicate, the CDF of its first-passage time.

    ``simulator_factory(rng)`` builds a fresh simulator exposing
    ``run(max_time, observer=..., stop=...)`` (the SMC and digital
    simulators both do).  Returns ``{key: [probabilities over grid]}``.

    Batches of seeded runs go through ``executor`` (see
    :mod:`repro.runtime`; ``None`` means
    :class:`~repro.runtime.SerialExecutor`).  A
    :class:`~repro.runtime.ParallelExecutor` needs a picklable factory
    — e.g. ``functools.partial(repro.smc.stochastic.network_simulator,
    Spec(make_traingate, 3))``.  Runs draw one spawned child source
    each, so every executor yields identical samples.
    ``fault_policy`` (a :class:`~repro.runtime.FaultPolicy`) replays
    failed batches from their seeds, keeping the samples identical
    across worker faults.
    """
    from ..runtime import seed_stream, seeded_batches

    with span("smc.first_passage_cdfs", runs=runs):
        seeds = seed_stream(rng, runs)
        samples = {key: [] for key in predicates}
        done = 0
        for batch in seeded_batches(
                first_passage_batch,
                (simulator_factory, predicates, horizon), seeds, executor,
                fault_policy):
            done += len(batch)
            checkpoint("smc.cdf", done, total=runs)
            for times in batch:
                for key, value in times.items():
                    samples[key].append(value)
        incr("smc.cdf.runs", done)
        return {key: empirical_cdf(vals, grid)
                for key, vals in samples.items()}
