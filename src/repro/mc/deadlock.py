"""Symbolic deadlock detection.

A concrete state deadlocks when no discrete transition is enabled from
it nor from any of its delay successors.  On a delay-closed symbolic
state this becomes a zone inclusion: the state is deadlock-free iff its
zone is covered by the down-closure (time predecessors) of the union of
the guard-satisfying zone parts of its enabled transitions.

:func:`deadlocked_part` computes that definition exactly.  A search for
the ``deadlock`` atom uses :class:`DeadlockGoal` instead, which decides
most states from the expansion the search makes anyway: when the past
of one guard zone ``P`` already includes the zone ``Z``, then
``Z ⊆ ↓P ⊆ ↓⋃P`` and no point deadlocks.  Only a zone that no single
guard zone covers pays for the federation subtraction.
"""

from __future__ import annotations

from ..dbm.federation import Federation
from ..ta.transitions import delay_forbidden


def deadlocked_part(graph, state):
    """The sub-zone of ``state`` whose points deadlock (may be empty)."""
    network = graph.network
    parts = graph.guard_zones(state)
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


class DeadlockGoal:
    """The ``deadlock`` atom as a goal of
    :func:`repro.mc.reachability.explore`.

    Called on a state it is :func:`has_deadlock`.  The search calls
    :meth:`expand` instead, which returns the state's successors and
    the verdict from one fire loop of the graph.
    """

    __slots__ = ("graph",)

    def __init__(self, graph):
        self.graph = graph

    def __call__(self, state):
        return has_deadlock(self.graph, state)

    def expand(self, state):
        """``(successors, deadlocked)`` of ``state``."""
        successors, covered = self.graph.expand(state)
        return successors, not covered and has_deadlock(self.graph, state)
