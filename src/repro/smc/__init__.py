"""Statistical model checking (UPPAAL-SMC)."""

from .stochastic import (
    ConcreteState,
    StochasticSimulator,
    network_simulator,
    simulate_once,
)
from .estimate import (
    MeanEstimate,
    ProbabilityEstimate,
    chernoff_runs,
    estimate_mean,
    estimate_probability,
)
from .sprt import SPRTResult, sprt
from .qualitative import (
    expected_value,
    probability_at_least,
    probability_estimate,
)
from .cdf import empirical_cdf, first_passage_cdfs
from .rare import SplittingResult, fixed_effort_splitting

__all__ = [
    "ConcreteState", "StochasticSimulator",
    "network_simulator", "simulate_once",
    "MeanEstimate", "ProbabilityEstimate", "chernoff_runs",
    "estimate_mean", "estimate_probability",
    "SPRTResult", "sprt",
    "expected_value", "probability_at_least", "probability_estimate",
    "empirical_cdf", "first_passage_cdfs",
    "SplittingResult", "fixed_effort_splitting",
]
