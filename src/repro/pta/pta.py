"""Probabilistic timed automata (PTA).

A PTA edge has a guard like a TA edge but branches probabilistically
over (reset, update, target-location) outcomes — the model underlying
mcpta in the paper (Kwiatkowska et al.).  PTA templates reuse the TA
infrastructure: locations, channels, data guards and network
composition come from :mod:`repro.ta`; only edges differ.  The branch
type and the one view of any edge's branches
(:func:`repro.ta.syntax.edge_branches`) live beside the TA edge too: a
TA edge is the one-branch (Dirac) special case of a PTA edge.
"""

from __future__ import annotations

from ..core.errors import ModelError
from ..ta.network import Network
from ..ta.syntax import Automaton, Branch, Edge


class ProbEdge(Edge):
    """A guarded edge with a distribution over branches."""

    __slots__ = ("branches",)

    def __init__(self, source, branches, guard=(), data_guard=None,
                 sync=None, label=None):
        if not branches:
            raise ModelError("probabilistic edge needs at least one branch")
        total = sum(b.probability for b in branches)
        if abs(total - 1.0) > 1e-9:
            raise ModelError(
                f"branch probabilities sum to {total}, expected 1")
        # The base-class target/resets/update are unused; branches carry
        # them.  Point target at the first branch for introspection.
        super().__init__(source, branches[0].target, guard=guard,
                         data_guard=data_guard, sync=sync, label=label)
        self.branches = tuple(branches)

    def __repr__(self):
        return (f"ProbEdge({self.source} -> "
                f"{'|'.join(b.target for b in self.branches)})")


class PTA(Automaton):
    """A probabilistic timed automaton template.

    Ordinary (Dirac) edges may be added with :meth:`add_edge`; they are
    treated as single-branch probabilistic edges by the translation.
    """

    def add_prob_edge(self, source, branches, guard=(), data_guard=None,
                      sync=None, label=None):
        if source not in self.locations:
            raise ModelError(f"{self.name}: unknown location {source!r}")
        branch_objs = []
        for branch in branches:
            if isinstance(branch, Branch):
                branch_objs.append(branch)
            else:
                probability, target = branch[0], branch[1]
                resets = branch[2] if len(branch) > 2 else ()
                update = branch[3] if len(branch) > 3 else ()
                branch_objs.append(Branch(probability, target, resets,
                                          update))
        for branch in branch_objs:
            if branch.target not in self.locations:
                raise ModelError(
                    f"{self.name}: unknown location {branch.target!r}")
            for clock, _v in branch.resets:
                if clock not in self.clocks:
                    raise ModelError(
                        f"{self.name}: unknown clock {clock!r}")
        edge = ProbEdge(source, branch_objs, guard=guard,
                        data_guard=data_guard, sync=sync, label=label)
        self.edges.append(edge)
        return edge


class PTANetwork(Network):
    """A network of PTA — construction identical to TA networks."""
