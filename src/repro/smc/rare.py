"""Rare-event simulation by fixed-effort importance splitting.

Table I's modes column illustrates the textbook weakness of plain
Monte Carlo: the interesting BRP events have probabilities around
1e-4/1e-5 and "were never observed in 10000 simulation runs" (paper,
Section III-A).  Importance splitting is the standard cure: choose a
*level function* that grows as a run approaches the rare event (for
the BRP, the retransmission counter), estimate the conditional
probability of climbing one level at a time, and multiply.

This module implements fixed-effort splitting over the digital
simulator: each stage launches the same number of runs from the states
that first entered the previous level, so the total effort is
``max_level * runs_per_stage`` short runs instead of the
``1/probability`` long runs plain Monte Carlo needs.

The estimator is unbiased for level functions that are non-decreasing
along the paths to the rare event (true for the retransmission counter
within a BRP frame); runs that finish without climbing count against
the conditional probability of their stage.
"""

from __future__ import annotations

import math

from ..core.errors import AnalysisError
from ..core.rng import ensure_rng
from ..obs import incr, span


class SplittingResult:
    """Outcome of a fixed-effort splitting estimation."""

    __slots__ = ("probability", "stage_probabilities", "total_runs")

    def __init__(self, probability, stage_probabilities, total_runs):
        self.probability = probability
        self.stage_probabilities = stage_probabilities
        self.total_runs = total_runs

    def __repr__(self):
        stages = " * ".join(f"{p:.4g}" for p in self.stage_probabilities)
        return (f"SplittingResult({self.probability:.4g} = {stages}, "
                f"{self.total_runs} runs)")


def splitting_batch(model, level_of, target_level, policy, max_steps,
                    starts, seeds):
    """One batch of splitting runs: from each start state, with its own
    seeded source, climb towards ``target_level``.

    Module-level (hence picklable) worker entry point; returns the
    entry state reached, or ``None``, per run in order.  ``model`` and
    ``level_of`` may be :class:`~repro.runtime.Spec` references.
    """
    from ..core.rng import RandomSource
    from ..pta.simulate import DigitalSimulator
    from ..runtime.spec import build_cached

    network = build_cached(model)
    level_fn = build_cached(level_of)
    out = []
    for start, seed in zip(starts, seeds):
        simulator = DigitalSimulator(network, policy=policy,
                                     rng=RandomSource(seed))
        out.append(_run_until_level(simulator, network, start, level_fn,
                                    target_level, max_steps))
    return out


def fixed_effort_splitting(network, level_of, max_level,
                           runs_per_stage=400, rng=None,
                           policy="max-delay", max_steps=100000,
                           executor=None):
    """Estimate ``P(eventually level_of(state) >= max_level)``.

    ``level_of(names, valuation, clocks) -> int`` is the importance
    function; level 0 must hold initially.  Returns a
    :class:`SplittingResult` whose ``probability`` is the product of
    the per-stage conditional estimates (0.0 if any stage dies out).

    Each stage's runs go through ``executor`` (see :mod:`repro.runtime`;
    ``None`` means :class:`~repro.runtime.SerialExecutor`): the
    coordinator pre-draws every run's start state and seed from the
    master ``rng``, so the estimate is bit-identical for any executor
    and worker count.  A
    :class:`~repro.runtime.ParallelExecutor` needs ``network`` and
    ``level_of`` as specs (the digital states themselves pickle fine).
    A stage's conditional estimate divides its hits by
    ``runs_per_stage``, which must be at least 1.
    """
    from ..pta.simulate import DigitalSimulator
    from ..runtime import build_cached, seed_stream, seeded_batches

    if runs_per_stage < 1:
        raise AnalysisError(
            f"runs_per_stage must be >= 1, got {runs_per_stage}")
    rng = ensure_rng(rng)
    model = build_cached(network)
    level_fn = build_cached(level_of)
    initial = DigitalSimulator(model, policy=policy).initial()
    names0 = model.location_vector_names(initial.locs)
    if level_fn(names0, initial.valuation, initial.clocks) != 0:
        raise AnalysisError("the initial state must be at level 0")

    entry_states = [initial]
    stage_probabilities = []
    total_runs = 0
    for level in range(max_level):
        next_entries = []
        hits = 0
        with span("smc.splitting.stage", level=level + 1) as sp:
            starts = [entry_states[rng.randint(0, len(entry_states) - 1)]
                      for _ in range(runs_per_stage)]
            seeds = seed_stream(rng, runs_per_stage)
            for reached_batch in seeded_batches(
                    splitting_batch,
                    (network, level_of, level + 1, policy, max_steps),
                    seeds, executor, per_run=starts):
                for reached in reached_batch:
                    if reached is not None:
                        hits += 1
                        next_entries.append(reached)
            sp.set("hits", hits)
        total_runs += runs_per_stage
        incr("smc.splitting.stages")
        incr("smc.splitting.runs", runs_per_stage)
        incr("smc.splitting.hits", hits)
        stage_probabilities.append(hits / runs_per_stage)
        if hits == 0:
            return SplittingResult(0.0, stage_probabilities, total_runs)
        entry_states = next_entries
    probability = math.prod(stage_probabilities)
    return SplittingResult(probability, stage_probabilities, total_runs)


def _run_until_level(simulator, network, start, level_of, target_level,
                     max_steps):
    """Simulate from ``start`` until the level reaches ``target_level``
    (returning the entry state) or the run ends (returning None)."""
    state = start
    for _ in range(max_steps):
        names = network.location_vector_names(state.locs)
        if level_of(names, state.valuation, state.clocks) >= target_level:
            return state
        move = simulator.step(state)
        if move is None:
            return None
        _kind, state, _dt = move
    raise AnalysisError(f"run exceeded {max_steps} steps")
