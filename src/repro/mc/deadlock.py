"""Symbolic deadlock detection.

A concrete state deadlocks when no discrete transition is enabled from
it nor from any of its delay successors.  On a delay-closed symbolic
state this becomes a zone inclusion: the state is deadlock-free iff its
zone is covered by the down-closure (time predecessors) of the union of
the guard-satisfying zone parts of its enabled transitions.
"""

from __future__ import annotations

from ..dbm.federation import Federation
from ..ta.transitions import delay_forbidden


def deadlocked_part(graph, state):
    """The sub-zone of ``state`` whose points deadlock (may be empty)."""
    network = graph.network
    parts = graph.enabled_action_zone_parts(state)
    size = network.dbm_size
    whole = Federation.from_zone(state.zone)
    if not parts:
        return whole
    enabled = Federation(size, parts)
    if not delay_forbidden(network, state.locs):
        # Points that can delay into an enabled part.  The zone is convex
        # and delay-closed, so staying inside it on the way is automatic.
        enabled = enabled.down()
    return whole.subtract(enabled)


def has_deadlock(graph, state):
    """True when some concrete point of the symbolic state deadlocks."""
    return not deadlocked_part(graph, state).is_empty()
