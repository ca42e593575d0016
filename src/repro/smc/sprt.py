"""Wald's sequential probability ratio test (SPRT).

The hypothesis-testing mode of statistical model checking: decide
``P(phi) >= theta`` against ``P(phi) < theta`` with prescribed error
bounds, sampling only as many runs as the evidence requires.
"""

from __future__ import annotations

import math

from ..core.errors import AnalysisError
from ..core.rng import ensure_rng
from ..obs import checkpoint, incr, log, span

#: Runs per SPRT task.  Seeds are drawn one chunk per task the executor
#: pulls, so an early stop never draws the rest of ``max_runs``.
CHUNK_RUNS = 32


class SPRTResult:
    """Verdict of a sequential test."""

    __slots__ = ("accept", "runs", "successes", "theta", "indifference")

    def __init__(self, accept, runs, successes, theta, indifference):
        self.accept = accept        # True: P >= theta accepted
        self.runs = runs
        self.successes = successes
        self.theta = theta
        self.indifference = indifference

    def __bool__(self):
        return self.accept

    def __repr__(self):
        verdict = ">=" if self.accept else "<"
        return (f"SPRTResult(P {verdict} {self.theta} after {self.runs} "
                f"runs, {self.successes} successes)")


def _record_verdict(result, log_a, log_b):
    """Flush one sequential test's logical totals into the registry
    and log its verdict event.

    Recorded at the coordinator while walking outcomes in run order, so
    the counts are identical for serial and parallel execution even
    when parallel chunks run ahead of the stopping point.
    """
    incr("smc.sprt.tests")
    incr("smc.sprt.runs", result.runs)
    incr("smc.sprt.successes", result.successes)
    incr("smc.sprt.accepted" if result.accept else "smc.sprt.rejected")
    log("smc.sprt.verdict", accept=result.accept, runs=result.runs,
        successes=result.successes, log_a=log_a, log_b=log_b)
    return result


def sprt(run_once, theta, indifference=0.01, alpha=0.05, beta=0.05,
         rng=None, max_runs=1000000, executor=None):
    """Sequentially test H1: p >= theta + delta vs H0: p <= theta - delta.

    ``alpha`` bounds the probability of accepting H1 when H0 holds,
    ``beta`` the converse.  Returns an :class:`SPRTResult` whose
    ``accept`` is True when H1 (probability at least theta) is accepted.

    Runs are dispatched through ``executor`` (see :mod:`repro.runtime`;
    ``None`` means :class:`~repro.runtime.SerialExecutor`) in chunks of
    :data:`CHUNK_RUNS` per-run seeds spawned from ``rng``; the
    coordinator walks the per-run outcomes in run order and stops
    dispatch as soon as the Wald boundary is crossed.  The verdict, run
    count, and success count are bit-identical for any executor, worker
    count, and chunk size (a parallel run may discard a few in-flight
    chunks unread on early stop).  A
    :class:`~repro.runtime.ParallelExecutor` needs a picklable
    ``run_once``.  An executor built with a
    :class:`~repro.runtime.FaultPolicy` survives crashed / raising /
    hung workers by replaying the failed chunks from their seeds — the
    verdict stays bit-identical.
    """
    p0 = theta - indifference
    p1 = theta + indifference
    if not (0 < p0 and p1 < 1):
        raise AnalysisError(
            f"indifference region [{p0},{p1}] leaves the unit interval")
    rng = ensure_rng(rng)
    log_a = math.log((1 - beta) / alpha)      # accept H1 above this
    log_b = math.log(beta / (1 - alpha))      # accept H0 below this
    llr = 0.0
    inc_success = math.log(p1 / p0)
    inc_failure = math.log((1 - p1) / (1 - p0))
    successes = 0

    from ..runtime import run_batch, seeded_batches

    run = 0
    seeds = (rng.spawn_seed() for _ in range(max_runs))
    results = seeded_batches(run_batch, (run_once,), seeds, executor,
                             CHUNK_RUNS)
    try:
        with span("smc.sprt", theta=theta):
            for outcomes in results:
                incr("smc.sprt.chunks")
                points = []
                decided = False
                for outcome in outcomes:
                    run += 1
                    if outcome:
                        successes += 1
                        llr += inc_success
                    else:
                        llr += inc_failure
                    if run & 63 == 0:
                        points.append({"llr": round(llr, 6),
                                       "successes": successes})
                    if llr >= log_a or llr <= log_b:
                        decided = True
                        break
                # After the fold, so the chunk's series points include
                # the ones the deciding run contributed.
                checkpoint("smc.sprt", series=lambda: points)
                if decided:
                    return _record_verdict(SPRTResult(
                        llr >= log_a, run, successes, theta,
                        indifference), log_a, log_b)
    finally:
        results.close()
    raise AnalysisError(f"SPRT undecided after {max_runs} runs")
