"""First-passage times over seeded simulation runs, and their CDFs.

Regenerates plots like the paper's Fig. 4: the empirical cumulative
probability, over time, of a time-bounded reachability event — e.g.
``Pr[<=100](<> Train(i).Cross)`` for every train, superposed.

:func:`first_passage_batch` is the one worker that records when
predicates first hold on a seeded run, for either simulator: the Fig. 4
CDFs, the modes backend (:func:`repro.modest.modes`) and time-bounded
SMC (:func:`~repro.smc.stochastic.simulate_once`) all read their
outcomes from a simulator's ``first_passage(predicates, horizon)``.
Both simulators walk their linked plans and call only the predicates
still pending: :class:`~repro.smc.StochasticSimulator` once per step,
:class:`~repro.pta.DigitalSimulator` once per state, since each step
plan memoises the bitmask of the predicates that hold there.  Either
way a predicate must be a pure function of ``(names, valuation,
clocks)``.
"""

from __future__ import annotations

from ..core.distributions import validate_horizon
from ..core.errors import AnalysisError
from ..obs import incr, span


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


def first_passage_batch(simulator_factory, predicates, horizon, seeds):
    """First-passage times for one batch of seeded runs.

    Module-level (hence picklable) worker entry point: returns one
    ``{key: time}`` dict per seed, in seed order (``inf`` = never
    within ``horizon``), from ``simulator_factory(RandomSource(seed))
    .first_passage(predicates, horizon)``; a run stops once every
    predicate has held.  Predicate values may be
    :class:`~repro.runtime.Spec` references, resolved here.
    """
    from ..core.rng import RandomSource
    from ..runtime.spec import build_cached

    resolved = {key: build_cached(p) for key, p in predicates.items()}
    return [simulator_factory(RandomSource(seed)).first_passage(
                resolved, horizon)
            for seed in seeds]


def first_passage_cdfs(simulator_factory, predicates, horizon, runs, grid,
                       rng=None, executor=None):
    """Estimate, for each predicate, the CDF of its first-passage time.

    ``simulator_factory(rng)`` builds a fresh simulator; each run calls
    its ``first_passage(predicates, horizon)``, which both
    :class:`~repro.smc.StochasticSimulator` and
    :class:`~repro.pta.DigitalSimulator` provide, and stops once every
    predicate has held.  A hit is recorded only in a state entered at
    or before ``horizon``: the stochastic simulator observes no state
    past it, and the digital one, moving in unit ticks, none past an
    integer horizon.  Predicates must be pure functions of ``(names,
    valuation, clocks)``.  ``horizon`` ``None`` means unbounded; NaN
    raises :class:`~repro.core.errors.AnalysisError` before any run.
    Returns ``{key: [probabilities over grid]}``.

    Batches of seeded runs go through ``executor`` (see
    :mod:`repro.runtime`; ``None`` means
    :class:`~repro.runtime.SerialExecutor`).  A
    :class:`~repro.runtime.ParallelExecutor` needs a picklable factory
    — e.g. ``functools.partial(repro.smc.stochastic.network_simulator,
    Spec(make_traingate, 3))``.  Runs draw one spawned child source
    each, so every executor yields identical samples, also when its
    :class:`~repro.runtime.FaultPolicy` replays failed batches.
    """
    from ..runtime import seed_stream, seeded_batches

    validate_horizon(horizon)
    with span("smc.first_passage_cdfs", runs=runs):
        seeds = seed_stream(rng, runs)
        samples = {key: [] for key in predicates}
        for batch in seeded_batches(
                first_passage_batch,
                (simulator_factory, predicates, horizon), seeds, executor):
            for times in batch:
                for key, value in times.items():
                    samples[key].append(value)
        incr("smc.cdf.runs", runs)
        return {key: empirical_cdf(vals, grid)
                for key, vals in samples.items()}
