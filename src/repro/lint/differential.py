"""Differential consistency gate across analysis engines.

Static lint catches malformed models; this module catches *diverging
engines*.  It runs the same seeded models through independent analysis
routes and fails when their verdicts or values disagree beyond the
documented tolerances:

``modest-backends``
    The Fig. 5 tour model and a small MODEST BRP through mctau
    (overapproximation + model checking), mcpta (digital clocks +
    probabilistic model checking) and modes (seeded simulation).
    Reachability verdicts must agree up to the approximation order
    (mctau overapproximates, so only ``mctau=False ∧ mcpta=True`` is a
    contradiction).  The value checks are *one-sided*: a simulation
    fixes one scheduler, so its seeded estimate witnesses Pmax/Emax
    from below — the exact maximum must dominate the estimate's lower
    confidence bound, widened by the slack constants below.

``mc-vs-reference``
    Full symbolic exploration of TA networks through the production
    engine (:func:`repro.mc.reachability.explore`) and the seed oracle
    (:func:`repro.mc.reference.reference_explore`).  The compat
    configuration (classic k-extrapolation, no waiting-list eviction)
    must match the oracle exactly — verdict, explored and stored state
    counts; the default lu+ abstraction must reach exactly the same
    discrete configurations while never storing more states.  The
    deadlock query of :meth:`repro.mc.Verifier.deadlock_free` must give
    the verdict and explored-state count of a search whose goal is the
    federation oracle :func:`repro.mc.reference.reference_has_deadlock`.

``mdp-vs-reference``
    Digital-clocks MDP construction and numeric analyses through the
    memoised builder + sparse core vs the seed builder + seed analyses:
    identical action tables and Prob0/Prob1 sets, values within
    ``VALUE_TOLERANCE``.

Disagreements become ``differential-disagreement`` **error** findings
in an ordinary :class:`~repro.lint.findings.LintReport`, so the CLI /
CI plumbing (JSON artifact, exit code, ``lint.*`` counters) is shared
with the static linter.  Every check also leaves a row in
``report.meta['differential']`` recording what was compared.

Tolerances
----------

* ``VALUE_TOLERANCE = 1e-9`` — numeric analyses against the reference
  implementations; both run to convergence ``epsilon=1e-12``, so any
  visible gap means a real divergence, not sampling noise.
* ``PROB_CI_SLACK = 0.02`` / ``MEAN_CI_SLACK = 0.05`` (relative) —
  exact values vs modes estimates.  The simulation is seeded, so the
  check is deterministic; the slack only covers the honest statistical
  error of the fixed run budget, widening the estimate's own 95%
  confidence interval.
"""

from __future__ import annotations

import math

import numpy as np

from ..mc.engine import Verifier
from ..mc.reachability import explore
from ..mc.reference import reference_explore, reference_has_deadlock
from ..mdp import analysis as core_analysis
from ..mdp import reference as mdp_reference
from ..models.brp_modest import brp_modest_source, not_success, reported
from ..models.fischer import make_fischer
from ..models.traingate import make_traingate
from ..modest import Emax, Pmax, Reach, mcpta, mctau, modes
from ..obs.metrics import incr
from ..pta.digital import build_digital_mdp
from ..smc.estimate import MeanEstimate, ProbabilityEstimate
from ..ta.zonegraph import ZoneGraph
from .findings import Finding, LintReport

#: Numeric tolerance for exact-vs-reference value comparisons.
VALUE_TOLERANCE = 1e-9
#: Absolute widening of the modes CI for probability comparisons.
PROB_CI_SLACK = 0.02
#: Relative widening of the modes CI for expectation comparisons.
MEAN_CI_SLACK = 0.05
#: Seed for every modes simulation; the gate is deterministic.
SEED = 11

_TOUR_SOURCE = """
const int TD = 1;

process Channel() {
  clock c;
  put palt {
  :98: {= c = 0 =};
     invariant(c <= TD) get
  : 2: {==}
  }; Channel()
}

bool delivered = false;

process Sender() {
  clock x;
  do {
    :: invariant(x <= 2) when(x >= 2) put {= x = 0 =}
    :: get {= delivered = true =}
  }
}

par { :: Sender() :: Channel() }
"""


def _delivered(names, valuation, clocks):
    return bool(valuation["delivered"])


class _Gate:
    """Accumulates findings and per-check meta rows."""

    def __init__(self):
        self.findings = []
        self.checks = []
        # Materialise the counter even for all-clean runs, so the CI
        # baseline can gate on disagreements == 0 exactly.
        incr("lint.differential.disagreements", 0)

    def record(self, check, model, where, agree, detail):
        incr("lint.differential.checks")
        self.checks.append({"check": check, "model": model,
                            "where": where, "agree": bool(agree),
                            "detail": detail})
        if not agree:
            incr("lint.differential.disagreements")
            self.findings.append(Finding(
                "differential-disagreement", "error", model,
                f"{check}/{where}", detail))

    def report(self):
        report = LintReport(self.findings,
                            sorted({c["model"] for c in self.checks}))
        report.meta["differential"] = self.checks
        return report


def _estimate_bounds(estimate):
    """(low, high) of an estimate, widened by the documented slack."""
    if isinstance(estimate, ProbabilityEstimate):
        return (max(0.0, estimate.low - PROB_CI_SLACK),
                min(1.0, estimate.high + PROB_CI_SLACK))
    if isinstance(estimate, MeanEstimate):
        low, high = estimate.interval()
        slack = MEAN_CI_SLACK * max(abs(estimate.mean), 1.0)
        return low - slack, high + slack
    raise TypeError(f"not an estimate: {estimate!r}")


def _check_backends(gate, model_name, source, predicate, runs):
    """mctau / mcpta / modes agreement on one MODEST model."""
    properties = [Reach("reach", predicate), Pmax("pmax", predicate),
                  Emax("emax", predicate)]
    tau = mctau(source, properties)
    pta = mcpta(source, properties)
    sim = modes(source, properties, runs=runs, rng=SEED)

    # mctau overapproximates: it may report reachable states the PTA
    # cannot reach, but never the other way round.
    agree = tau["reach"] or not pta["reach"]
    gate.record(
        "modest-backends", model_name, "reach", agree,
        f"mctau says reach={tau['reach']}, mcpta says "
        f"{pta['reach']} (mctau overapproximates; mcpta-only "
        f"reachability is a contradiction)")

    # modes resolves nondeterminism with one scheduler, so its seeded
    # estimate is a *lower witness* for Pmax: the exact maximum must
    # dominate the widened CI's lower end (and stay a probability).
    low, _high = _estimate_bounds(sim["pmax"])
    value = pta["pmax"]
    gate.record(
        "modest-backends", model_name, "pmax",
        low <= value <= 1.0,
        f"mcpta Pmax={value:.6f} vs modes lower witness "
        f"[{sim['pmax'].low:.4f},{sim['pmax'].high:.4f}] "
        f"(n={sim['pmax'].runs}, ±{PROB_CI_SLACK} slack): the exact "
        f"maximum must dominate the simulated scheduler")

    # Same one-sided shape for Emax, and only when every simulated run
    # hit the goal (modes drops non-hitting runs; mcpta conditions on
    # nothing, so partial hits are not comparable).
    if value > 1.0 - PROB_CI_SLACK and sim["emax"].runs == runs:
        low, _high = _estimate_bounds(sim["emax"])
        evalue = pta["emax"]
        gate.record(
            "modest-backends", model_name, "emax",
            low <= evalue and math.isfinite(evalue),
            f"mcpta Emax={evalue:.4f} vs modes mean "
            f"{sim['emax'].mean:.4f}±{sim['emax'].std:.4f} "
            f"(n={sim['emax'].runs}, {MEAN_CI_SLACK:.0%} slack): the "
            f"exact maximum must dominate the simulated scheduler")


def _check_explore(gate, model_name, network_a, network_b):
    """Production exploration vs the seed oracle, full sweep.

    Two layers.  The *compat* configuration (classic k-extrapolation,
    no waiting-list eviction) must be **bit-identical** to the seed
    oracle.  The default lu+ abstraction legitimately visits fewer
    symbolic states, so it is held to set-level exactness instead: the
    same discrete configurations, never more stored states, and
    identical sets with eviction on or off.  The deadlock query, which
    decides most states by a one-zone cover test, must match a search
    over the federation oracle.
    """
    configs_k = set()
    new = explore(ZoneGraph(network_a, abstraction="k"),
                  on_state=lambda s: configs_k.add(s.discrete_key()),
                  evict_waiting=False)
    ref = reference_explore(ZoneGraph(network_b, abstraction="k"))
    for field in ("found", "states_explored", "states_stored"):
        mine, theirs = getattr(new, field), getattr(ref, field)
        gate.record(
            "mc-vs-reference", model_name, field, mine == theirs,
            f"explore {field}={mine} vs reference_explore {theirs}")

    for evict in (True, False):
        configs_lu = set()
        lu = explore(ZoneGraph(network_a, abstraction="lu+"),
                     on_state=lambda s: configs_lu.add(s.discrete_key()),
                     evict_waiting=evict)
        where = "lu+configs" if evict else "lu+configs-noevict"
        gate.record(
            "mc-vs-reference", model_name, where,
            configs_lu == configs_k,
            f"lu+ reaches {len(configs_lu)} discrete configurations vs "
            f"{len(configs_k)} under k "
            f"({len(configs_lu - configs_k)} spurious, "
            f"{len(configs_k - configs_lu)} missing)")
        if evict:
            gate.record(
                "mc-vs-reference", model_name, "lu+stored",
                lu.states_stored <= ref.states_stored,
                f"lu+ stores {lu.states_stored} states vs reference "
                f"{ref.states_stored}: the coarser abstraction must "
                f"never store more")

    fused = Verifier(network_a).deadlock_free()
    graph = ZoneGraph(network_b, abstraction="k")
    oracle = explore(graph,
                     goal=lambda s: reference_has_deadlock(graph, s))
    gate.record(
        "mc-vs-reference", model_name, "deadlock",
        (fused.holds, fused.states_explored)
        == (not oracle.found, oracle.states_explored),
        f"deadlock_free holds={fused.holds} after "
        f"{fused.states_explored} states vs oracle deadlock "
        f"found={oracle.found} after {oracle.states_explored}")


def _check_mdp(gate, model_name, network_a, network_b, predicate):
    """Memoised digital builder + sparse core vs the seed pipeline."""
    new = build_digital_mdp(network_a)
    ref = mdp_reference.reference_build_digital_mdp(network_b)
    gate.record(
        "mdp-vs-reference", model_name, "states",
        new.mdp.num_states == ref.mdp.num_states,
        f"builder states {new.mdp.num_states} vs reference "
        f"{ref.mdp.num_states}")
    same = new.mdp.num_states == ref.mdp.num_states
    if same:
        mine, theirs = new.mdp.finalize(), ref.mdp.finalize()
        same = (all(np.array_equal(getattr(mine, name), getattr(theirs, name))
                    for name in ("cols", "probs", "action_offsets",
                                 "action_rewards", "state_offsets"))
                and mine.action_labels == theirs.action_labels)
    gate.record(
        "mdp-vs-reference", model_name, "actions", same,
        "sparse arrays and action labels "
        + ("identical" if same else "differ"))
    if new.mdp.num_states != ref.mdp.num_states:
        return
    targets_new = new.states_where(predicate)
    targets_ref = ref.states_where(predicate)
    for name in ("prob0_max", "prob0_min", "prob1_max", "prob1_min"):
        mine = getattr(core_analysis, name)(new.mdp, targets_new)
        theirs = getattr(mdp_reference, name)(ref.mdp, targets_ref)
        gate.record(
            "mdp-vs-reference", model_name, name, mine == theirs,
            f"{len(mine)} states vs reference {len(theirs)}, "
            f"{len(mine ^ theirs)} in only one of them")
    for maximize in (True, False):
        mine = core_analysis.reachability_probability(
            new.mdp, targets_new, maximize=maximize)
        theirs = mdp_reference.reachability_probability(
            ref.mdp, targets_ref, maximize=maximize)
        gap = max(abs(float(a) - float(b))
                  for a, b in zip(mine, theirs))
        name = "pmax" if maximize else "pmin"
        gate.record(
            "mdp-vs-reference", model_name, name,
            gap <= VALUE_TOLERANCE,
            f"max |core - reference| = {gap:.3e} over "
            f"{new.mdp.num_states} states (tolerance "
            f"{VALUE_TOLERANCE})")


def run_differential(quick=False):
    """Run every differential check; returns a :class:`LintReport`.

    ``quick=True`` shrinks the model sizes and simulation budgets for
    test suites; CI runs the full pool.
    """
    gate = _Gate()
    runs = 500 if quick else 3000

    _check_backends(gate, "modest-tour", _TOUR_SOURCE, _delivered, runs)
    brp_source = brp_modest_source(2, 1, 1)
    _check_backends(gate, "brp-modest-2", brp_source, reported, runs)

    _check_explore(gate, "traingate-2", make_traingate(2),
                   make_traingate(2))
    if not quick:
        _check_explore(gate, "fischer-3", make_fischer(3, 2),
                       make_fischer(3, 2))

    from ..modest.flatten import flatten_model
    from ..modest.parser import parse_modest
    _check_mdp(gate, "brp-modest-2-digital",
               flatten_model(parse_modest(brp_source)),
               flatten_model(parse_modest(brp_source)),
               not_success)

    return gate.report()
