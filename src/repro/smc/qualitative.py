"""Qualitative SMC: settle ``Pr[<= T](<> phi) >= theta`` by sequential
hypothesis testing.

UPPAAL-SMC's headline mode: properties are "settled with a desired
level of confidence based on random simulation runs" (paper, Section
II).  This module wires the stochastic simulator to Wald's SPRT so a
single call answers a probability-threshold query over a TA network,
and to fixed-budget estimation for the quantitative variant.

Every entry point takes an optional ``executor`` (see
:mod:`repro.runtime`; the default runs serially) that may fan the
independent runs out over worker processes.  Because networks carry
unpicklable guard/update callables, parallel callers pass
:class:`~repro.runtime.Spec` references to module-level model and
predicate factories instead of live objects; workers rebuild them once
per process.  Per-run seeds come from the master ``rng``'s spawn
stream, so results are bit-identical for any executor and worker
count.
"""

from __future__ import annotations

import functools
import math

from ..core.rng import ensure_rng
from ..obs import incr, span
from .estimate import estimate_probability
from .sprt import sprt
from .stochastic import StochasticSimulator, simulate_once


def _spec_run_once(network, predicate, horizon, default_rate):
    """A picklable run closure: a partial over the module-level
    :func:`~repro.smc.stochastic.simulate_once`."""
    return functools.partial(simulate_once, network, predicate, horizon,
                             default_rate=default_rate)


def probability_at_least(network, predicate, theta, horizon,
                         indifference=0.01, alpha=0.05, beta=0.05,
                         rng=None, default_rate=1.0, max_runs=1000000,
                         executor=None):
    """Test ``Pr[<= horizon](<> predicate) >= theta`` sequentially.

    ``predicate`` takes ``(location_names, valuation, clocks)``.
    Returns an :class:`~repro.smc.SPRTResult`; truthiness is the
    verdict.  Error probabilities are bounded by ``alpha``/``beta``
    outside the indifference region.  Runs are dispatched in chunks
    and dispatch stops once the SPRT boundary is crossed.
    """
    run_once = _spec_run_once(network, predicate, horizon, default_rate)
    return sprt(run_once, theta, indifference=indifference, alpha=alpha,
                beta=beta, rng=rng, max_runs=max_runs, executor=executor)


def probability_estimate(network, predicate, horizon, runs=738,
                         confidence=0.95, rng=None, default_rate=1.0,
                         executor=None, checkpoint=None):
    """Quantitative variant: ``Pr[<= horizon](<> predicate)`` with a
    Clopper–Pearson interval (default budget = the Chernoff count for
    eps = delta = 0.05).  Fault recovery and ``checkpoint`` behave as
    in :func:`~repro.smc.estimate_probability`."""
    run_once = _spec_run_once(network, predicate, horizon, default_rate)
    return estimate_probability(run_once, runs=runs, rng=rng,
                                confidence=confidence, executor=executor,
                                checkpoint=checkpoint)


def observe_extremum(model, observe, horizon, mode, rng=None,
                     default_rate=1.0):
    """One run's max/min/final observation (``nan`` when nothing was
    observed).  Module-level and spec-friendly, hence picklable."""
    from ..runtime.spec import build_cached

    predicate = build_cached(observe)
    simulator = StochasticSimulator(build_cached(model),
                                    rng=ensure_rng(rng),
                                    default_rate=default_rate)
    seen = []

    def observer(t, names, valuation, clocks):
        seen.append(float(predicate(names, valuation, clocks)))

    simulator.run(max_time=horizon, observer=observer)
    if not seen:
        return math.nan
    if mode == "max":
        return max(seen)
    if mode == "min":
        return min(seen)
    return seen[-1]


def expected_value(network, observe, horizon, runs=500, mode="max",
                   confidence=0.95, rng=None, default_rate=1.0,
                   executor=None):
    """Estimate UPPAAL-SMC's ``E[<= horizon](max|min|final: expr)``.

    ``observe(names, valuation, clocks) -> number`` is evaluated at
    every visited state; per run the maximum (``mode="max"``), minimum
    (``"min"``) or last (``"final"``) observation is kept, and a
    :class:`~repro.smc.MeanEstimate` over the runs is returned.  Each
    run draws one spawned child source, so every executor sees
    identical per-run seeds — and returns identical samples.
    """
    from ..core.errors import AnalysisError
    from ..runtime import sample_batch, seed_stream, seeded_batches
    from .estimate import MeanEstimate

    if mode not in ("max", "min", "final"):
        raise AnalysisError(f"unknown mode {mode!r}")
    with span("smc.expected_value", runs=runs, mode=mode):
        run_once = functools.partial(observe_extremum, network, observe,
                                     horizon, mode,
                                     default_rate=default_rate)
        seeds = seed_stream(rng, runs)
        samples = []
        for values in seeded_batches(sample_batch, (run_once,), seeds,
                                     executor):
            samples.extend(v for v in values if not math.isnan(v))
        incr("smc.runs", runs)
        return MeanEstimate(samples, confidence)
