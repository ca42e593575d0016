"""Flat BIP systems and hierarchical composites.

A :class:`BIPSystem` is the flat form: atomic components, connectors
over their ports, and priority rules filtering the enabled interactions.
A :class:`Composite` adds hierarchy — components may be composites whose
ports are *exported* inner ports — and :func:`flatten` performs the
source-to-source transformation to the flat form (the role of the BIP
transformers cited in the paper).
"""

from __future__ import annotations

from itertools import product
from types import MappingProxyType

from ..core.errors import ModelError
from .component import AtomicComponent
from .connector import Connector, Interaction


class SystemState:
    """Global state: per component, a place and a data valuation."""

    __slots__ = ("places", "valuations")

    def __init__(self, places, valuations):
        self.places = places
        self.valuations = valuations

    def key(self):
        return (self.places,
                tuple(v.values for v in self.valuations))

    def place_of(self, index):
        return self.places[index]

    def __repr__(self):
        return f"SystemState(places={self.places})"


class PriorityRule:
    """``low < high``: when ``high`` is enabled, suppress ``low``.

    Names refer to connectors; ``condition(state_ctx)`` optionally
    restricts when the rule applies (BIP's guarded priorities, used to
    express scheduling policies).
    """

    __slots__ = ("low", "high", "condition")

    def __init__(self, low, high, condition=None):
        if low == high:
            raise ModelError("a connector cannot have priority over itself")
        self.low = low
        self.high = high
        self.condition = condition

    def __repr__(self):
        return f"PriorityRule({self.low} < {self.high})"


class BIPSystem:
    """A flat BIP model: Behaviour + Interaction + Priority."""

    def __init__(self, name="system"):
        self.name = name
        self.components = []
        self._index = {}
        self.connectors = []
        self.priorities = []

    # -- construction -----------------------------------------------------------

    def add_component(self, component):
        if component.name in self._index:
            raise ModelError(
                f"component {component.name!r} added twice")
        component.validate()
        self._index[component.name] = len(self.components)
        self.components.append(component)
        return component

    def add_connector(self, connector):
        for comp_name, port in connector.endpoints:
            component = self.component(comp_name)
            if port not in component.ports:
                raise ModelError(
                    f"connector {connector.name}: {comp_name} has no "
                    f"port {port!r}")
        self.connectors.append(connector)
        return connector

    def add_priority(self, low, high, condition=None):
        known = {c.name for c in self.connectors}
        for name in (low, high):
            if name not in known:
                raise ModelError(f"priority over unknown connector "
                                 f"{name!r}")
        rule = PriorityRule(low, high, condition)
        self.priorities.append(rule)
        return rule

    def add_maximal_progress(self):
        """The BIP idiom: larger interactions take priority.

        Adds a rule ``small < big`` for every connector pair where
        ``big`` synchronises strictly more endpoints — so e.g. a
        rendezvous always beats the interleaving of its parts.
        """
        rules = []
        for low in self.connectors:
            for high in self.connectors:
                if len(high.endpoints) > len(low.endpoints):
                    rules.append(self.add_priority(low.name, high.name))
        return rules

    def component(self, name):
        try:
            return self.components[self._index[name]]
        except KeyError:
            raise ModelError(f"unknown component {name!r}") from None

    def component_index(self, name):
        if name not in self._index:
            raise ModelError(f"unknown component {name!r}")
        return self._index[name]

    # -- semantics ----------------------------------------------------------------

    def initial_state(self):
        return SystemState(
            tuple(c.initial_place for c in self.components),
            tuple(c.declarations.initial() for c in self.components))

    def enabled_interactions(self, state):
        """All interactions firable from ``state``, priority-filtered."""
        return self.filter_priorities(state,
                                      self.enumerate_interactions(state))

    def enumerate_interactions(self, state):
        """All interactions firable from ``state`` before priorities.

        A broadcast joins its trigger, first, with every other endpoint
        that has an enabled transition (the maximal interaction).  Each
        connector guard is called once, on one read-only context.
        """
        places, valuations = state.places, state.valuations
        ctx = None
        interactions = []
        for connector in self.connectors:
            per_endpoint = []
            for comp_name, port in connector.endpoints:
                index = self._index[comp_name]
                component = self.components[index]
                per_endpoint.append([
                    (component, t) for t in component.enabled_transitions(
                        places[index], valuations[index], port)])
            if connector.is_broadcast:
                trigger_pos = connector.endpoints.index(connector.trigger)
                trigger = per_endpoint.pop(trigger_pos)
                per_endpoint = [trigger] + [c for c in per_endpoint if c]
            if not all(per_endpoint):
                continue
            if connector.guard is not None:
                if ctx is None:
                    ctx = self._context(state)
                if not connector.guard(ctx):
                    continue
            interactions.extend(Interaction(connector, combo)
                                for combo in product(*per_endpoint))
        return interactions

    def _context(self, state):
        """Read-only view of all component data for connector guards
        and priority conditions."""
        return MappingProxyType({
            c.name: v for c, v in zip(self.components, state.valuations)})

    def filter_priorities(self, state, interactions):
        """``interactions`` less those whose connector a priority rule
        suppresses in ``state``."""
        if not self.priorities:
            return interactions
        enabled_names = {i.connector.name for i in interactions}
        suppressed = set()
        ctx = None
        for rule in self.priorities:
            if rule.high in enabled_names:
                if rule.condition is not None:
                    if ctx is None:
                        ctx = self._context(state)
                    if not rule.condition(ctx):
                        continue
                suppressed.add(rule.low)
        return [i for i in interactions
                if i.connector.name not in suppressed]

    def execute(self, state, interaction):
        """Fire an interaction: transfer function first, then the
        participants' updates; returns the successor state."""
        envs = {c.name: v.env()
                for c, v in zip(self.components, state.valuations)}
        if interaction.connector.transfer is not None:
            interaction.connector.transfer(envs)
        places = list(state.places)
        for component, transition in interaction.participants:
            index = self._index[component.name]
            if state.places[index] != transition.source:
                raise ModelError(
                    f"stale interaction: {component.name} left "
                    f"{transition.source}")
            if transition.update is not None:
                transition.update(envs[component.name])
            places[index] = transition.target
        valuations = tuple(envs[c.name].commit() for c in self.components)
        return SystemState(tuple(places), valuations)

    def __repr__(self):
        return (f"BIPSystem({self.name}, {len(self.components)} "
                f"components, {len(self.connectors)} connectors, "
                f"{len(self.priorities)} priorities)")


# -- hierarchy -------------------------------------------------------------------

class Composite:
    """A hierarchical component: children + connectors + exported ports."""

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.connectors = []
        self.priorities = []
        self.exports = {}

    def add_child(self, child):
        if child.name in self.children:
            raise ModelError(f"{self.name}: child {child.name!r} twice")
        self.children[child.name] = child
        return child

    def add_connector(self, connector):
        self.connectors.append(connector)
        return connector

    def add_priority(self, low, high, condition=None):
        self.priorities.append(PriorityRule(low, high, condition))

    def export(self, exported_port, child_name, child_port):
        """Make an inner port visible on this composite's interface."""
        if exported_port in self.exports:
            raise ModelError(
                f"{self.name}: port {exported_port!r} exported twice")
        if child_name not in self.children:
            raise ModelError(f"{self.name}: unknown child {child_name!r}")
        self.exports[exported_port] = (child_name, child_port)

    @property
    def ports(self):
        return list(self.exports)


def flatten(composite, separator="/"):
    """Source-to-source transformation: hierarchy -> flat BIPSystem.

    Atomic components are renamed to their path (``robot/ndd``);
    connector endpoints that reference a composite's exported port are
    resolved to the owning atomic component.
    """
    system = BIPSystem(composite.name)

    def resolve(scope, comp_name, port):
        child = scope.children.get(comp_name)
        if child is None:
            raise ModelError(f"{scope.name}: unknown component "
                             f"{comp_name!r}")
        if isinstance(child, AtomicComponent):
            return f"{prefix_of[id(scope)]}{comp_name}", port
        if port not in child.exports:
            raise ModelError(
                f"{child.name}: port {port!r} is not exported")
        inner_name, inner_port = child.exports[port]
        return resolve(child, inner_name, inner_port)

    prefix_of = {}

    def walk(scope, prefix):
        prefix_of[id(scope)] = prefix
        for name, child in scope.children.items():
            if isinstance(child, AtomicComponent):
                clone = child
                if prefix:
                    clone = _rename(child, prefix + name)
                system.add_component(clone)
            else:
                walk(child, f"{prefix}{name}{separator}")
        for connector in scope.connectors:
            endpoints = [resolve(scope, c, p)
                         for c, p in connector.endpoints]
            trigger = None
            if connector.trigger is not None:
                trigger = resolve(scope, *connector.trigger)
            system.add_connector(Connector(
                connector.name, endpoints, trigger=trigger,
                guard=connector.guard, transfer=connector.transfer))
        for rule in scope.priorities:
            system.add_priority(rule.low, rule.high, rule.condition)

    walk(composite, "")
    return system


def _rename(component, new_name):
    clone = AtomicComponent(new_name, ports=component.ports)
    clone.places = list(component.places)
    clone.initial_place = component.initial_place
    clone.transitions = list(component.transitions)
    clone.declarations = component.declarations
    return clone
