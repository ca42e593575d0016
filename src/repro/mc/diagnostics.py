"""Human-readable diagnostics: symbolic trace formatting.

``E<>`` witnesses come back as (transition, symbolic state) chains;
this module renders them the way UPPAAL's simulator pane would — one
step per line with locations, variable changes and the zone's clock
bounds.

Counting goes through the :mod:`repro.obs` metrics registry
(:func:`trace_stats`), not ad-hoc locals, and deliberately does **not**
repeat what ``mc.check`` spans already carry: the span owns the
per-query verdict and states-explored attributes, the registry owns the
session totals, and this module only contributes the trace-local step
counts.
"""

from __future__ import annotations

from ..dbm.bounds import INF
from ..obs.metrics import incr


def _clock_bounds(network, zone):
    parts = []
    for index, clock_name in enumerate(network.clock_names, start=1):
        upper = zone.upper_bound(index)
        lower = zone.lower_bound(index)
        if upper >= INF:
            parts.append(f"{clock_name} >= {lower}")
        else:
            upper_value = upper >> 1
            if lower == upper_value:
                parts.append(f"{clock_name} = {lower}")
            else:
                parts.append(f"{clock_name} in [{lower}, {upper_value}]")
    return ", ".join(parts)


def format_state(network, state):
    """One symbolic state as a single line."""
    locations = ", ".join(
        f"{process.name}.{name}" for process, name in zip(
            network.processes,
            network.location_vector_names(state.locs)))
    variables = ", ".join(
        f"{name}={value!r}" for name, value in zip(
            state.valuation.decls.names, state.valuation.values))
    clocks = _clock_bounds(network, state.zone)
    line = f"({locations})"
    if variables:
        line += f"  {{{variables}}}"
    if clocks:
        line += f"  [{clocks}]"
    return line


def trace_stats(trace):
    """Counts over a witness trace, recorded through the metrics
    registry when a collector is active.

    Returns ``{"states": ..., "steps": ...}`` (both 0 for ``None``).
    The verdict and search-wide state counts are *not* re-derived here:
    they already live on the ``mc.check`` span and in the ``mc.*``
    registry totals (see :mod:`repro.obs`).
    """
    states = len(trace) if trace is not None else 0
    steps = max(states - 1, 0)
    incr("mc.traces_rendered")
    incr("mc.trace_steps", steps)
    return {"states": states, "steps": steps}


def format_trace(network, trace):
    """A witness trace (from ``VerificationResult.trace``) as text."""
    trace_stats(trace)
    if trace is None:
        return "(no trace)"
    lines = []
    for index, (transition, state) in enumerate(trace):
        if transition is None:
            lines.append(f"  0. (initial) {format_state(network, state)}")
        else:
            lines.append(f"{index:>3}. --[{transition.describe()}]-->")
            lines.append(f"     {format_state(network, state)}")
    return "\n".join(lines)
