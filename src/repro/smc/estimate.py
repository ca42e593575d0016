"""Statistical estimation for SMC: point estimates and confidence
intervals over Bernoulli observations, and sample-size planning.

UPPAAL-SMC settles properties "with a desired level of confidence based
on random simulation runs" (paper, Section II); the machinery is here:
Clopper–Pearson (exact) intervals, the Chernoff–Hoeffding bound for
a-priori run counts, and normal approximations for mean estimates (the
mu/sigma columns of Table I).
"""

from __future__ import annotations

import contextlib
import math
from statistics import NormalDist

from .. import obs
from ..core.errors import AnalysisError
from ..obs import active, collecting, incr, span


def _estimate_point(confidence, done, successes):
    """One ``smc.estimate`` time-series point: running mean plus a
    cheap normal-approximation interval (the exact Clopper–Pearson
    interval is reserved for the final estimate — beta quantiles per
    checkpoint would dwarf the runs being measured)."""
    p = successes / done
    half = _normal_quantile(confidence) * math.sqrt(p * (1.0 - p) / done)
    return {"mean": round(p, 6), "low": round(max(0.0, p - half), 6),
            "high": round(min(1.0, p + half), 6)}


def _normal_quantile(confidence):
    """The two-sided standard-normal critical value of ``confidence``."""
    return NormalDist().inv_cdf(0.5 + confidence / 2)


def _beta_cf(a, b, x):
    """Continued fraction of the regularised incomplete beta function
    (modified Lentz; converges fast for ``x < (a + 1) / (a + b + 2)``)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100000):
        m2 = 2 * m
        for numerator in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                          -(a + m) * (a + b + m) * x
                          / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 4e-16:
            break
    return h


def _beta_cdf(x, a, b):
    """The regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_quantile(q, a, b):
    """The ``q``-quantile of Beta(a, b): bisection on :func:`_beta_cdf`
    down to adjacent floats."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _beta_cdf(mid, a, b) < q:
            lo = mid
        else:
            hi = mid


class ProbabilityEstimate:
    """A Bernoulli estimate with an exact confidence interval."""

    __slots__ = ("successes", "runs", "confidence", "low", "high")

    def __init__(self, successes, runs, confidence=0.95):
        if runs <= 0:
            raise AnalysisError("need at least one run")
        if not 0 <= successes <= runs:
            raise AnalysisError(
                f"successes {successes} outside 0..{runs} runs")
        self.successes = successes
        self.runs = runs
        self.confidence = confidence
        alpha = 1.0 - confidence
        if successes == 0:
            self.low = 0.0
        else:
            self.low = _beta_quantile(
                alpha / 2, successes, runs - successes + 1)
        if successes == runs:
            self.high = 1.0
        else:
            self.high = _beta_quantile(
                1 - alpha / 2, successes + 1, runs - successes)

    @property
    def mean(self):
        return self.successes / self.runs

    @property
    def std(self):
        """Standard deviation of the Bernoulli observations (the sigma
        reported in Table I's modes column)."""
        p = self.mean
        return math.sqrt(p * (1.0 - p))

    def __repr__(self):
        return (f"ProbabilityEstimate({self.mean:.6g} "
                f"[{self.low:.6g}, {self.high:.6g}] "
                f"@{self.confidence:.0%}, {self.runs} runs)")


class MeanEstimate:
    """Sample mean with standard deviation and a normal-approximation
    confidence interval (used for expected values such as Emax)."""

    __slots__ = ("samples", "confidence")

    def __init__(self, samples, confidence=0.95):
        if not samples:
            raise AnalysisError("need at least one sample")
        self.samples = list(samples)
        self.confidence = confidence

    @property
    def runs(self):
        return len(self.samples)

    @property
    def mean(self):
        return sum(self.samples) / len(self.samples)

    @property
    def std(self):
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def interval(self):
        z = _normal_quantile(self.confidence)
        half = z * self.std / math.sqrt(self.runs)
        return (self.mean - half, self.mean + half)

    def __repr__(self):
        lo, hi = self.interval()
        return (f"MeanEstimate({self.mean:.6g} +- {self.std:.3g} "
                f"[{lo:.6g}, {hi:.6g}])")


def chernoff_runs(epsilon, delta):
    """Runs needed so that P(|p_hat - p| >= epsilon) <= delta
    (Chernoff–Hoeffding / Okamoto bound)."""
    if not (0 < epsilon < 1) or not (0 < delta < 1):
        raise AnalysisError("need 0 < epsilon, delta < 1")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def _campaign_setup(checkpoint, kind, seeds, executor, initial_state):
    """Checkpoint scaffolding shared by the fixed-budget estimators.

    Returns ``(fingerprint, size, state, inner, outer)``: the campaign's
    checkpoint fingerprint and batch size (the executor's choice, pinned
    so a resumed campaign keeps its batch boundaries), the (possibly
    resumed) campaign state, the campaign-local collector capturing
    exactly this campaign's metrics, and the coordinator's ambient
    collector to merge into on completion.  Without a checkpoint only
    ``state`` is set and the batch size is left to the executor.
    Resuming a matching checkpoint merges its saved metrics snapshot,
    so the final logical totals equal an uninterrupted run's.
    """
    if checkpoint is None:
        return None, None, initial_state, None, None
    from ..obs.metrics import Collector
    from ..runtime import runs_per_task

    size = runs_per_task(executor, len(seeds))
    fingerprint = {"kind": kind, "runs": len(seeds), "batch_size": size,
                   "seeds": seeds[:1] + seeds[-1:]}
    outer = active()
    inner = Collector("smc.checkpoint")
    state = initial_state
    loaded = checkpoint.load(fingerprint)
    # A tally or metrics snapshot that cannot be resumed exactly is
    # damaged: restart as if there were no file.
    if loaded is not None and _resumable(loaded["state"], initial_state,
                                         size, len(seeds)):
        try:
            inner.merge(loaded["metrics"])
        except (AttributeError, KeyError, TypeError):
            inner = Collector("smc.checkpoint")
        else:
            state = loaded["state"]
    return fingerprint, size, state, inner, outer


def _resumable(state, initial_state, size, runs):
    """Whether a saved tally is one of ``initial_state``'s shape that
    covers exactly its ``batch`` whole batches of ``size`` runs."""
    if not all(type(state.get(key)) is type(value)
               for key, value in initial_state.items()):
        return False
    batch = state["batch"]
    if batch < 0 or (batch - 1) * size >= runs:
        return False
    done = min(batch * size, runs)
    if "samples" in state:
        return len(state["samples"]) == done and all(
            isinstance(value, (int, float)) for value in state["samples"])
    return state["done"] == done and 0 <= state["successes"] <= done


def _campaign_finish(checkpoint, inner, outer):
    """Fold a checkpointed campaign's collector into the ambient one
    and discard the (now complete) checkpoint file."""
    if checkpoint is None:
        return
    if outer is not None:
        outer.merge(inner)
    checkpoint.clear()


def estimate_probability(run_once, runs, rng=None, confidence=0.95,
                         executor=None, checkpoint=None):
    """Estimate P(run_once(rng) is truthy) from ``runs`` samples.

    The budget is split into batches of per-run seeds spawned from
    ``rng`` and run by ``executor`` (see :mod:`repro.runtime`; the
    default ``None`` means :class:`~repro.runtime.SerialExecutor`),
    which also decides how many runs a batch carries.  A
    :class:`~repro.runtime.ParallelExecutor` needs a picklable
    ``run_once`` (a module-level function, or a
    :func:`functools.partial` over one).  Results are bit-identical for
    any executor and worker count.

    An executor built with a :class:`~repro.runtime.FaultPolicy`
    survives crashed / raising / hung workers by replaying the failed
    batches from their seeds — still bit-identical — or raises
    :class:`~repro.core.errors.TaskError`; the estimate always covers
    the whole budget.  ``checkpoint`` (a
    :class:`~repro.runtime.Checkpoint`) snapshots the tally and metrics
    every few batches and resumes a matching interrupted campaign
    exactly.
    """
    from ..runtime import run_batch, seed_stream, seeded_batches

    with span("smc.estimate_probability", runs=runs) as sp:
        seeds = seed_stream(rng, runs)
        fingerprint, size, state, inner, outer = _campaign_setup(
            checkpoint, "smc.estimate_probability", seeds, executor,
            {"batch": 0, "successes": 0, "done": 0})
        scope = collecting(inner) if inner is not None \
            else contextlib.nullcontext()
        with scope:
            completed = state["batch"]
            successes = state["successes"]
            done = state["done"]
            for outcomes in seeded_batches(run_batch, (run_once,),
                                           seeds[done:], executor, size):
                # Walk the outcomes run by run so the series samples
                # at every ``done & 63 == 0`` position — the sample
                # *count* is then independent of the batching.
                marks = []
                for outcome in outcomes:
                    done += 1
                    if outcome:
                        successes += 1
                    if done & 63 == 0:
                        marks.append((done, successes))
                completed += 1
                obs.checkpoint("smc.estimate", series=lambda: [
                    _estimate_point(confidence, *mark) for mark in marks])
                if checkpoint is not None and checkpoint.due(completed):
                    checkpoint.save(fingerprint,
                                    {"batch": completed,
                                     "successes": successes,
                                     "done": done},
                                    inner.snapshot())
            incr("smc.runs", done)
            incr("smc.accepted", successes)
            obs.log("smc.estimate.done", runs=done, successes=successes)
        _campaign_finish(checkpoint, inner, outer)
        sp.set("successes", successes)
    return ProbabilityEstimate(successes, done, confidence)


def estimate_mean(run_once, runs, rng=None, confidence=0.95,
                  executor=None, checkpoint=None):
    """Estimate E[run_once(rng)] from ``runs`` samples.

    Executor semantics as in :func:`estimate_probability` (including
    fault recovery and ``checkpoint``); samples are concatenated in
    run order, so the estimate (and its interval) does not depend on
    the batching.
    """
    from ..runtime import sample_batch, seed_stream, seeded_batches

    with span("smc.estimate_mean", runs=runs):
        seeds = seed_stream(rng, runs)
        fingerprint, size, state, inner, outer = _campaign_setup(
            checkpoint, "smc.estimate_mean", seeds, executor,
            {"batch": 0, "samples": []})
        scope = collecting(inner) if inner is not None \
            else contextlib.nullcontext()
        with scope:
            completed = state["batch"]
            samples = list(state["samples"])
            total = sum(samples)  # seeded for checkpoint resume
            for values in seeded_batches(sample_batch, (run_once,),
                                         seeds[len(samples):], executor,
                                         size):
                points = []
                for value in values:
                    samples.append(value)
                    total += value
                    if len(samples) & 63 == 0:
                        points.append(
                            {"mean": round(total / len(samples), 6)})
                completed += 1
                obs.checkpoint("smc.estimate_mean", series=lambda: points)
                if checkpoint is not None and checkpoint.due(completed):
                    checkpoint.save(fingerprint,
                                    {"batch": completed,
                                     "samples": samples},
                                    inner.snapshot())
            incr("smc.runs", len(samples))
            obs.log("smc.estimate_mean.done", runs=len(samples))
        _campaign_finish(checkpoint, inner, outer)
    return MeanEstimate(samples, confidence)
