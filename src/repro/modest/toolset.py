"""The MODEST TOOLSET front-end: one model, three analysis backends.

Mirrors the paper's Section III architecture:

* :func:`mctau` — overapproximate probabilistic choice, hand the TA to
  the UPPAAL-style model checker (:mod:`repro.mc`).  Safety verdicts are
  exact; quantitative queries come back as the trivial interval [0, 1].
* :func:`mcpta` — digital-clocks translation to an MDP, solved by the
  PRISM-style engine (:mod:`repro.mdp`): exact probabilities and
  expected values.
* :func:`modes` — discrete-event simulation under an explicit scheduler
  (:class:`repro.pta.DigitalSimulator`), returning statistical
  estimates.  It is a thin layer over the first-passage worker of
  :mod:`repro.smc.cdf`: each run records when every property's
  predicate first holds.

All three accept either MODEST source text, a parsed
:class:`~repro.modest.ast.ModestModel`, or an already-flattened
:class:`~repro.pta.PTANetwork`.
"""

from __future__ import annotations

import math
from functools import partial

from ..core.errors import QueryError
from ..mc.engine import Verifier
from ..mc.queries import EF
from ..obs import incr, set_gauge, span
from ..pta.digital import build_digital_mdp
from ..pta.overapprox import overapproximate_network
from ..pta.pta import PTANetwork
from ..pta.simulate import DigitalSimulator
from ..smc.cdf import first_passage_batch
from ..smc.estimate import MeanEstimate, ProbabilityEstimate
from .ast import ModestModel
from .flatten import flatten_model
from .parser import parse_modest


def load(model):
    """Coerce text / AST / network into a :class:`PTANetwork`."""
    if isinstance(model, str):
        model = parse_modest(model)
    if isinstance(model, ModestModel):
        model = flatten_model(model)
    if not isinstance(model, PTANetwork):
        raise QueryError(f"cannot analyse {model!r}")
    return model


# -- properties ----------------------------------------------------------------

class Property:
    """Base class of MODEST properties over state predicates.

    Predicates take ``(location_names, valuation, clocks)`` — the same
    signature across all three backends.
    """

    def __init__(self, name, predicate):
        self.name = name
        self.predicate = predicate


class Reach(Property):
    """Is the predicate reachable? (mctau: boolean; mcpta: probability;
    modes: estimated probability)."""


class Pmax(Property):
    """Maximum probability of eventually satisfying the predicate."""


class Pmin(Property):
    """Minimum probability of eventually satisfying the predicate."""


class Emax(Property):
    """Maximum expected time until the predicate first holds."""


class Emin(Property):
    """Minimum expected time until the predicate first holds."""


class Interval:
    """mctau's answer to quantitative queries it cannot settle."""

    def __init__(self, low, high):
        self.low = low
        self.high = high

    def __repr__(self):
        return f"[{self.low}, {self.high}]"

    def __eq__(self, other):
        return (isinstance(other, Interval) and self.low == other.low
                and self.high == other.high)


# -- backends -------------------------------------------------------------------

def mctau(model, properties, max_states=200000):
    """Analyse via nondeterministic overapproximation + model checking.

    Returns ``{property_name: verdict}`` where reachability verdicts are
    booleans/0 and quantitative properties yield :class:`Interval` or
    ``None`` (n/a for expectations, as in Table I).
    """
    with span("modest.mctau", properties=len(properties)):
        network = load(model)
        ta = overapproximate_network(network)
        verifier = Verifier(ta, max_states=max_states)
        results = {}
        for prop in properties:
            incr("modest.mctau.properties")
            predicate = _lift_predicate(prop)
            if isinstance(prop, Reach):
                reachable = verifier.check(EF(predicate)).holds
                results[prop.name] = reachable
            elif isinstance(prop, (Pmax, Pmin)):
                reachable = verifier.check(EF(predicate)).holds
                # Unreachable even with nondeterministic losses:
                # exactly 0.
                results[prop.name] = 0.0 if not reachable \
                    else Interval(0, 1)
            elif isinstance(prop, (Emax, Emin)):
                results[prop.name] = None  # n/a
            else:
                raise QueryError(f"unsupported property {prop!r}")
        return results


class _ZoneClocks:
    """The ``clocks`` argument of a predicate checked by mctau: a zone
    holds no single clock valuation, so reading a clock raises a
    :class:`QueryError` that names the property."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __getitem__(self, _index):
        raise QueryError(
            f"property {self.name!r} reads clock values, which mctau's "
            "zone-based check cannot supply; use mcpta or modes")


def _lift_predicate(prop):
    from ..mc.queries import StateFormula

    predicate, clocks = prop.predicate, _ZoneClocks(prop.name)

    class _Pred(StateFormula):
        def holds(self, net, state):
            names = net.location_vector_names(state.locs)
            return bool(predicate(names, state.valuation, clocks))

    return _Pred()


def mcpta(model, properties, extra_constants=None, interval=False):
    """Exact probabilistic model checking via digital clocks + MDP.

    With ``interval=True``, probability queries run certified interval
    iteration (sound even across end components, thanks to the MEC
    collapse in :mod:`repro.mdp.analysis`) instead of plain value
    iteration.
    """
    from ..mdp.analysis import (
        expected_total_reward,
        prob0_max,
        reachability_probability,
    )

    with span("modest.mcpta", properties=len(properties)) as sp:
        network = load(model)
        digital = build_digital_mdp(network,
                                    extra_constants=extra_constants)
        sp.set("mdp_states", digital.mdp.num_states)
        sp.set("mdp_transitions", digital.mdp.num_transitions)
        set_gauge("modest.mcpta.states", digital.mdp.num_states)
        set_gauge("modest.mcpta.transitions", digital.mdp.num_transitions)
        results = {}
        for prop in properties:
            incr("modest.mcpta.properties")
            targets = digital.states_where(prop.predicate)
            if isinstance(prop, Reach):
                results[prop.name] = bool(targets) and (
                    0 not in prob0_max(digital.mdp, targets))
            elif isinstance(prop, (Pmax, Pmin)):
                values = reachability_probability(
                    digital.mdp, targets, maximize=isinstance(prop, Pmax),
                    interval=interval)
                results[prop.name] = float(values[0])
            elif isinstance(prop, (Emax, Emin)):
                values = expected_total_reward(
                    digital.mdp, targets, maximize=isinstance(prop, Emax))
                results[prop.name] = float(values[0])
            else:
                raise QueryError(f"unsupported property {prop!r}")
        return results


def to_uppaal_xml(model, queries=()):
    """Export a MODEST model (text / AST / network) as UPPAAL XML —
    mctau's export path in the paper ("export to UPPAAL XML, including
    automatic layout").  Probabilistic choices are overapproximated
    nondeterministically first, as UPPAAL cannot represent them."""
    from ..export.uppaal_xml import export_network
    from ..pta.overapprox import overapproximate_network

    network = load(model)
    return export_network(overapproximate_network(network),
                          queries=queries)


_LOAD_CACHE = {}


def load_cached(model):
    """Like :func:`load`, memoised per process for hashable model forms
    (MODEST source text, :class:`~repro.runtime.Spec` references) —
    workers parse/flatten a model once, not once per batch."""
    from ..runtime.spec import build_cached

    try:
        return _LOAD_CACHE[model]
    except TypeError:
        return load(build_cached(model))
    except KeyError:
        network = load(build_cached(model))
        _LOAD_CACHE[model] = network
        return network


def modes_simulator(model, policy, rng):
    """A :class:`~repro.pta.DigitalSimulator` of ``model`` under
    ``policy``; module-level so ``functools.partial(modes_simulator,
    model, policy)`` is a picklable simulator factory."""
    return DigitalSimulator(load_cached(model), policy=policy, rng=rng)


def modes(model, properties, runs=10000, rng=None, policy="max-delay",
          max_time=None, confidence=0.95, executor=None):
    """Statistical estimation by discrete-event simulation.

    For probability properties returns a
    :class:`~repro.smc.ProbabilityEstimate`; for expectations a
    :class:`~repro.smc.MeanEstimate`.  Nondeterminism is resolved by the
    simulator's scheduler ``policy`` — the results are estimates for
    *that scheduler*, the standard caveat of simulating nondeterministic
    models (paper, Section III-A).

    The ``runs`` budget goes through ``executor`` (see
    :mod:`repro.runtime`; ``None`` means
    :class:`~repro.runtime.SerialExecutor`) in batches with per-run
    seeds spawned from ``rng`` (the executor decides how many runs a
    batch carries), so estimates are bit-identical for any executor and
    worker count.  A
    :class:`~repro.runtime.ParallelExecutor` needs ``model`` as MODEST
    source text or a :class:`~repro.runtime.Spec` (both picklable), and
    property predicates as module-level functions or specs.  An
    executor built with a :class:`~repro.runtime.FaultPolicy` keeps the
    guarantee across crashed, raising, or hung workers by replaying the
    failed batches from their seeds.
    """
    from ..runtime import seed_stream, seeded_batches

    reach_props = [p for p in properties
                   if isinstance(p, (Reach, Pmax, Pmin))]
    time_props = [p for p in properties if isinstance(p, (Emax, Emin))]
    observed = {p.name: 0 for p in reach_props}
    durations = {p.name: [] for p in time_props}

    with span("modest.modes", runs=runs, policy=policy):
        incr("modest.modes.properties", len(properties))
        seeds = seed_stream(rng, runs)
        predicates = {p.name: p.predicate for p in properties}
        for batch in seeded_batches(
                first_passage_batch,
                (partial(modes_simulator, model, policy), predicates,
                 max_time),
                seeds, executor):
            for hit_time in batch:
                _tally(reach_props, time_props, hit_time, observed,
                       durations)
        incr("modest.modes.runs", runs)

    results = {}
    for p in reach_props:
        results[p.name] = ProbabilityEstimate(observed[p.name], runs,
                                              confidence)
    for p in time_props:
        samples = durations[p.name]
        results[p.name] = MeanEstimate(samples, confidence) if samples \
            else None
    return results


def _tally(reach_props, time_props, hit_time, observed, durations):
    """Count one run's first-hit times (``inf`` = never hit)."""
    for p in reach_props:
        if hit_time[p.name] != math.inf:
            observed[p.name] += 1
    for p in time_props:
        if hit_time[p.name] != math.inf:
            durations[p.name].append(hit_time[p.name])
