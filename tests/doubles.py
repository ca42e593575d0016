"""Test doubles shared by test modules: an executor that pins batch
boundaries, the first-passage recorder both simulators'
``first_passage`` walks are held to, and the two-pass BIP interaction
enumeration and engine step the one-pass ones are held to."""

import math
from itertools import product

from repro.bip import BIPEngine, Interaction
from repro.runtime import Executor, SerialExecutor


class FixedBatches(Executor):
    """Runs every task on ``inner`` (a fresh :class:`SerialExecutor` by
    default) but cuts each campaign into ``size``-run batches.

    Batch size is the executor's decision, so this is how a test pins
    the task boundaries its fault injections and checkpoints count on.
    """

    def __init__(self, size, inner=None):
        self.size = size
        self.inner = SerialExecutor() if inner is None else inner
        self.workers = self.inner.workers

    def batch_size_for(self, runs):
        return self.size

    def imap(self, fn, tasks):
        return self.inner.imap(fn, tasks)


class FirstPassageRecorder:
    """Observer recording when each watched predicate first becomes true.

    The oracle of ``first_passage``: a simulator's ``run`` with a
    recorder as ``observer`` and its :meth:`all_seen` as ``stop`` takes
    the same moves and draws and must record the same hit times.  Use
    one recorder per run; ``times[key]`` is the first time predicate
    ``key`` held (``inf`` if never).  Only the predicates still pending
    are evaluated, and ``pending`` is rebuilt only on a hit.
    """

    def __init__(self, predicates):
        self.times = {key: math.inf for key in predicates}
        self.pending = list(predicates.items())

    def __call__(self, time, names, valuation, clocks):
        hit = False
        for key, predicate in self.pending:
            if predicate(names, valuation, clocks):
                self.times[key] = time
                hit = True
        if hit:
            self.pending = [entry for entry in self.pending
                            if self.times[entry[0]] == math.inf]

    def all_seen(self, *_state):
        """Whether every predicate has held; ignores its arguments, so
        it serves as either simulator's ``stop``."""
        return not self.pending


def two_pass_interactions(system, state):
    """``(unfiltered, filtered)``: the interactions of ``system`` from
    ``state`` before and after priorities, enumerated connector by
    connector with the guard asked once per instance on a fresh
    context, then filtered by a second pass."""
    unfiltered = []
    for connector in system.connectors:
        unfiltered.extend(_connector_instances(system, connector, state))
    return unfiltered, _filter_priorities(system, state, unfiltered)


def _context(system, state):
    return {c.name: state.valuations[i]
            for i, c in enumerate(system.components)}


def _connector_instances(system, connector, state):
    per_endpoint = []
    for comp_name, port in connector.endpoints:
        index = system.component_index(comp_name)
        component = system.components[index]
        per_endpoint.append([
            (component, t) for t in component.enabled_transitions(
                state.places[index], state.valuations[index], port)])
    if connector.is_broadcast:
        trigger_pos = connector.endpoints.index(connector.trigger)
        if not per_endpoint[trigger_pos]:
            return []
        # Maximal interaction: trigger plus every ready receiver.
        per_endpoint = [per_endpoint[trigger_pos]] + [
            c for i, c in enumerate(per_endpoint)
            if i != trigger_pos and c]
    elif not all(per_endpoint):
        return []
    return [Interaction(connector, combo)
            for combo in product(*per_endpoint)
            if connector.guard is None
            or connector.guard(_context(system, state))]


def _filter_priorities(system, state, interactions):
    enabled_names = {i.connector.name for i in interactions}
    suppressed = set()
    for rule in system.priorities:
        if rule.high in enabled_names and (
                rule.condition is None
                or rule.condition(_context(system, state))):
            suppressed.add(rule.low)
    return [i for i in interactions
            if i.connector.name not in suppressed]


class TwoPassEngine(BIPEngine):
    """:class:`~repro.bip.BIPEngine` stepping on
    :func:`two_pass_interactions`: the same choice, firing and trace
    bookkeeping, so a run with the same seed must match the engine's."""

    def step(self):
        unfiltered, interactions = two_pass_interactions(self.system,
                                                         self.state)
        self.trace.blocked_count += len(unfiltered) - len(interactions)
        chosen = self.choose(interactions)
        if chosen is None:
            self.trace.deadlocked = True
            return None
        self.state = self.system.execute(self.state, chosen)
        self.trace.steps.append(chosen.describe())
        return chosen
