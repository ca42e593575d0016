"""Probability distributions used by the stochastic semantics.

UPPAAL-SMC's stochastic semantics (paper, Section II-c) attaches an
exponential delay distribution to locations without an invariant upper
bound and a uniform distribution over the allowed delay interval to
locations with one.  MODEST additionally uses discrete (weighted)
branching via ``palt``.
"""

from __future__ import annotations

import math

from .errors import AnalysisError, ModelError


def validate_rate(rate):
    """Reject non-finite or non-positive exponential rates.

    Shared by :class:`Exponential` and the ``rate-invalid`` lint rule so
    construction-time and lint-time checks can never drift apart.
    Returns the rate as a float.
    """
    try:
        value = float(rate)
    except (TypeError, ValueError):
        raise ModelError(f"exponential rate must be a number, "
                         f"got {rate!r}") from None
    if not math.isfinite(value):
        raise ModelError(f"exponential rate must be finite, got {rate!r}")
    if value <= 0:
        raise ModelError(f"exponential rate must be positive, got {rate}")
    return value


def validate_horizon(horizon):
    """The time bound of a simulation run: ``None`` means unbounded
    (``inf``), NaN raises :class:`AnalysisError`, and any other value
    is returned as it is.

    Shared by both simulators' runs and first-passage walks, so a NaN
    bound can never run unbounded unnoticed.
    """
    if horizon is None:
        return math.inf
    if horizon != horizon:
        raise AnalysisError("simulation horizon is NaN")
    return horizon


def validate_interval(low, high):
    """Reject empty, negative or non-finite delay intervals.

    Shared by :class:`Uniform` / :class:`Dirac` construction and lint.
    Returns ``(low, high)`` as floats.
    """
    try:
        lo, hi = float(low), float(high)
    except (TypeError, ValueError):
        raise ModelError(f"interval bounds must be numbers, "
                         f"got [{low!r},{high!r}]") from None
    if math.isnan(lo) or math.isnan(hi) or math.isinf(lo):
        raise ModelError(f"bad interval bounds [{low},{high}]")
    if lo > hi or lo < 0:
        raise ModelError(f"bad uniform support [{low},{high}]")
    return lo, hi


def validate_weights(weights):
    """Reject negative, non-finite or all-zero weight vectors.

    Shared by :class:`Weighted` construction, the ``palt`` flattening
    path and the ``prob-branch-invalid`` / ``modest-palt-weights`` lint
    rules.  Returns the weights as a list of floats.
    """
    values = []
    for weight in weights:
        try:
            value = float(weight)
        except (TypeError, ValueError):
            raise ModelError(f"weight must be a number, "
                             f"got {weight!r}") from None
        if not math.isfinite(value):
            raise ModelError(f"weight must be finite, got {weight!r}")
        if value < 0:
            raise ModelError(f"negative weight {weight}")
        values.append(value)
    if sum(values) <= 0:
        raise ModelError("weighted distribution needs positive weight")
    return values


class Distribution:
    """Base class: a distribution over non-negative real delays."""

    def sample(self, rng):
        raise NotImplementedError

    def mean(self):
        raise NotImplementedError


class Exponential(Distribution):
    """Exponential distribution with the given rate (lambda)."""

    __slots__ = ("rate",)

    def __init__(self, rate):
        self.rate = validate_rate(rate)

    def sample(self, rng):
        return rng.expovariate(self.rate)

    def mean(self):
        return 1.0 / self.rate

    def __repr__(self):
        return f"Exponential(rate={self.rate})"


class Uniform(Distribution):
    """Uniform distribution over ``[low, high]``."""

    __slots__ = ("low", "high")

    def __init__(self, low, high):
        self.low, self.high = validate_interval(low, high)

    def sample(self, rng):
        return rng.uniform(self.low, self.high)

    def mean(self):
        return (self.low + self.high) / 2.0

    def __repr__(self):
        return f"Uniform({self.low}, {self.high})"


class Dirac(Distribution):
    """Deterministic delay."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value, _ = validate_interval(value, value)

    def sample(self, rng):
        return self.value

    def mean(self):
        return self.value

    def __repr__(self):
        return f"Dirac({self.value})"


class Weighted:
    """A discrete distribution over arbitrary outcomes, given as weights.

    This is the semantic object behind MODEST's ``palt`` (Fig. 5 of the
    paper uses weights 98 / 2 for delivery vs. loss).
    """

    __slots__ = ("outcomes", "probabilities")

    def __init__(self, weighted_outcomes):
        pairs = list(weighted_outcomes)
        weights = validate_weights(w for _outcome, w in pairs)
        total = sum(weights)
        support = [(outcome, w) for (outcome, _), w in zip(pairs, weights)
                   if w > 0]
        self.outcomes = tuple(outcome for outcome, _ in support)
        self.probabilities = tuple(w / total for _, w in support)

    def sample(self, rng):
        x = rng.random()
        acc = 0.0
        for outcome, p in zip(self.outcomes, self.probabilities):
            acc += p
            if x < acc:
                return outcome
        return self.outcomes[-1]

    def support(self):
        return self.outcomes

    def __len__(self):
        return len(self.outcomes)

    def __repr__(self):
        pairs = ", ".join(
            f"{o!r}:{p:.4g}" for o, p in
            zip(self.outcomes, self.probabilities))
        return f"Weighted({pairs})"


def delay_distribution(lower, upper, rate=1.0):
    """The UPPAAL-SMC delay distribution for a location.

    ``lower`` is the earliest time any edge becomes enabled (0 if unknown)
    and ``upper`` the invariant bound (``None`` / ``inf`` when absent).
    Without an upper bound the delay is ``lower`` plus an exponential with
    the location's rate; otherwise it is uniform on ``[lower, upper]``.
    """
    if upper is None or math.isinf(upper):
        if lower <= 0:
            return Exponential(rate)
        return _Shifted(lower, Exponential(rate))
    if upper < lower:
        raise ModelError(f"empty delay interval [{lower},{upper}]")
    if upper == lower:
        return Dirac(lower)
    return Uniform(lower, upper)


class _Shifted(Distribution):
    """``offset`` plus a base distribution (used for guarded exponentials)."""

    __slots__ = ("offset", "base")

    def __init__(self, offset, base):
        self.offset = float(offset)
        self.base = base

    def sample(self, rng):
        return self.offset + self.base.sample(rng)

    def mean(self):
        return self.offset + self.base.mean()

    def __repr__(self):
        return f"Shifted({self.offset}, {self.base!r})"
