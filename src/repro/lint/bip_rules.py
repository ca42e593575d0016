"""Lint rules for BIP systems.

The checks mirror what D-Finder establishes statically before computing
invariants (paper, Section IV): every interaction must be *firable in
principle* — each endpoint's component must have at least one transition
on the connected port — and the behaviour graphs must be well-formed.
A connector whose port signature cannot be matched by any combination
of component transitions is permanently disabled: every composition
that relies on it deadlocks silently at run time, which is precisely
the class of modelling mistake compositional deadlock detection exists
to catch early.

========================  ========  =============================================
rule id                   severity  meaning
========================  ========  =============================================
bip-dead-interaction      error     a connector endpoint's port labels no
                                    transition of that component
bip-place-unreachable     warning   place with no transition path from the
                                    initial place
bip-port-unconnected      warning   port with transitions but no connector:
                                    its transitions can never fire
bip-port-unused           info      port declared but labelling no transition
                                    and in no connector
bip-priority-shadowed     info      priority pair declared both ways round
========================  ========  =============================================
"""

from __future__ import annotations

from ..bip.dfinder import component_invariant
from ..core.errors import ModelError
from .findings import Finding


def collect_system(system, model_name):
    """All findings for a flat :class:`~repro.bip.system.BIPSystem`."""
    findings = []
    connected = {}   # component name -> set of ports in some connector
    for connector in system.connectors:
        for comp_name, port in connector.endpoints:
            connected.setdefault(comp_name, set()).add(port)
            component = _component(system, comp_name)
            if component is None:
                continue  # add_connector validates; defensive only
            if not any(t.port == port for t in component.transitions):
                findings.append(Finding(
                    "bip-dead-interaction", "error", model_name,
                    f"{connector.name}/{comp_name}.{port}",
                    f"connector {connector.name!r} requires "
                    f"{comp_name}.{port} but {comp_name!r} has no "
                    f"transition on port {port!r}: the interaction can "
                    f"never fire"))
    for component in system.components:
        _check_component(component, model_name,
                         connected.get(component.name, set()), findings)
    _check_priorities(system, model_name, findings)
    return findings


def _component(system, name):
    try:
        return system.component(name)
    except ModelError:  # defensive: add_connector already validated
        return None


def _check_component(component, model_name, connected_ports, findings):
    used_ports = {t.port for t in component.transitions}
    for port in component.ports:
        where = f"{component.name}/{port}"
        if port not in used_ports and port not in connected_ports:
            findings.append(Finding(
                "bip-port-unused", "info", model_name, where,
                f"port {port!r} labels no transition and joins no "
                f"connector"))
        elif port in used_ports and port not in connected_ports:
            findings.append(Finding(
                "bip-port-unconnected", "warning", model_name, where,
                f"port {port!r} has transitions but is in no connector: "
                f"in a closed system those transitions can never fire"))
    reachable = component_invariant(component)
    for place in component.places:
        if place not in reachable:
            findings.append(Finding(
                "bip-place-unreachable", "warning", model_name,
                f"{component.name}/{place}",
                f"place {place!r} has no transition path from the "
                f"initial place {component.initial_place!r}"))


def _check_priorities(system, model_name, findings):
    pairs = {(rule.low, rule.high) for rule in system.priorities}
    reported = set()
    for low, high in pairs:
        if (high, low) in pairs and (high, low) not in reported:
            reported.add((low, high))
            findings.append(Finding(
                "bip-priority-shadowed", "info", model_name,
                f"priorities/{low}<{high}",
                f"priority declared both ways round between {low!r} and "
                f"{high!r}: whichever applies last wins, check intent"))
