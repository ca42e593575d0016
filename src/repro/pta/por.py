"""Partial-order confluence checking for scheduler-free simulation.

The paper (Section III) notes that modes "is also able to soundly
handle nondeterminism resulting from the interleaving of concurrent
behaviour without relying on (implicit or explicit) schedulers",
citing Bogdoll, Ferrer Fioriti, Hartmanns & Hermanns (FORTE'11): when
every nondeterministic choice in a state is between *independent*
transitions — they touch disjoint processes and disjoint data — any
resolution yields the same distribution over behaviours, so simulation
without a scheduler is sound.

This module implements the on-the-fly independence check used by the
``"por"`` policy of :class:`repro.pta.DigitalSimulator`: spurious
interleavings are resolved silently; genuine nondeterminism raises,
exactly the sound behaviour the paper describes.
"""

from __future__ import annotations

from ..core.errors import AnalysisError
from ..core.expressions import Assignment, Expr
from ..ta.syntax import edge_branches


def _written_variables(edge):
    """Variables an edge may write, or ``None`` when unknown (callable
    updates force a conservative answer)."""
    written = set()
    for branch in edge_branches(edge):
        for update in branch.update:
            if isinstance(update, Assignment):
                written.add(update.target)
            else:
                return None  # opaque Python callable
    return written


def _read_variables(edge):
    """Variables an edge may read, or ``None`` when unknown."""
    read = set()
    if edge.data_guard is not None:
        if isinstance(edge.data_guard, Expr):
            read |= edge.data_guard.variables()
        else:
            return None
    for branch in edge_branches(edge):
        for update in branch.update:
            if isinstance(update, Assignment):
                read |= update.variables_read()
            else:
                return None
    return read


def transition_footprint(transition):
    """(processes, read_vars, written_vars) of a transition; the
    variable sets are ``None`` when not statically known."""
    processes = {p.index for p, _e in transition.participants}
    read = set()
    written = set()
    for _process, edge in transition.participants:
        edge_read = _read_variables(edge)
        edge_written = _written_variables(edge)
        if edge_read is None or edge_written is None:
            return processes, None, None
        read |= edge_read
        written |= edge_written
    return processes, read, written


def independent(t1, t2):
    """Conservative independence: disjoint participants, and neither
    writes what the other reads or writes."""
    procs1, read1, written1 = transition_footprint(t1)
    procs2, read2, written2 = transition_footprint(t2)
    if procs1 & procs2:
        return False
    if read1 is None or read2 is None:
        return False  # opaque data access: assume dependent
    if written1 & (read2 | written2):
        return False
    if written2 & (read1 | written1):
        return False
    return True


def check_confluent(transitions):
    """Raise :class:`AnalysisError` unless all enabled transitions are
    pairwise independent (then any choice is sound)."""
    for i, t1 in enumerate(transitions):
        for t2 in transitions[i + 1:]:
            if not independent(t1, t2):
                raise AnalysisError(
                    "genuine nondeterminism between "
                    f"{t1.describe()} and {t2.describe()}: "
                    "scheduler-free simulation would be unsound "
                    "(pick an explicit scheduler policy)")
    return True
