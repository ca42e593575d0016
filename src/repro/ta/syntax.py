"""Syntax of UPPAAL-style timed automata.

An :class:`Automaton` is a template in the UPPAAL sense (Fig. 1 of the
paper): locations with invariants, edges with clock guards, data guards,
channel synchronisations, clock resets and data updates.  Templates are
instantiated into a :class:`~repro.ta.network.Network` under a process
name, which renames their local clocks apart.  A plain edge is the
one-branch (Dirac) case of a probabilistic edge: :func:`edge_branches`
reads the :class:`Branch` outcomes of either kind.

Data guards and updates may be either :class:`~repro.core.Expr` /
:class:`~repro.core.Assignment` objects or plain Python callables taking
an environment — the latter mirror UPPAAL's C-like user code (the queue
functions of Fig. 1c are written this way in
:mod:`repro.models.traingate`).
"""

from __future__ import annotations

from ..core.errors import ModelError
from ..dbm.bounds import le, lt

#: Comparison operators allowed in clock constraints.
CLOCK_OPS = ("<", "<=", ">", ">=", "==")


class Channel:
    """A synchronisation channel.

    ``broadcast`` channels implement triggered asymmetric synchronisation
    (one sender, every ready receiver); ordinary channels are binary
    rendezvous.  ``urgent`` channels forbid delay while a synchronisation
    on them is enabled.
    """

    __slots__ = ("name", "broadcast", "urgent")

    def __init__(self, name, broadcast=False, urgent=False):
        self.name = name
        self.broadcast = broadcast
        self.urgent = urgent

    def __repr__(self):
        kind = "broadcast " if self.broadcast else ""
        kind += "urgent " if self.urgent else ""
        return f"Channel({kind}{self.name})"


class ClockAtom:
    """One conjunct of a clock constraint: ``x - y ~ bound`` or ``x ~ bound``.

    ``bound`` is an integer; ``==`` expands into both inequalities when
    applied to a zone.
    """

    __slots__ = ("clock", "other", "op", "bound")

    def __init__(self, clock, op, bound, other=None):
        if op not in CLOCK_OPS:
            raise ModelError(f"bad clock operator {op!r}")
        self.clock = clock
        self.other = other
        self.op = op
        self.bound = int(bound)

    def encoded_constraints(self, index_of):
        """Yield ``(i, j, encoded_bound)`` triples for a DBM.

        ``index_of`` maps clock names to DBM indices (reference = 0).
        """
        i = index_of(self.clock)
        j = index_of(self.other) if self.other is not None else 0
        c = self.bound
        op = self.op
        if op in ("<", "<="):
            yield (i, j, lt(c) if op == "<" else le(c))
        elif op in (">", ">="):
            yield (j, i, lt(-c) if op == ">" else le(-c))
        else:  # ==
            yield (i, j, le(c))
            yield (j, i, le(-c))

    def is_upper_bound(self):
        """True for ``x < c`` / ``x <= c`` / ``x == c`` atoms."""
        return self.op in ("<", "<=", "==")

    def holds(self, clock_value, other_value=0):
        """Concrete-semantics check (used by SMC and discrete engines)."""
        diff = clock_value - other_value
        if self.op == "<":
            return diff < self.bound
        if self.op == "<=":
            return diff <= self.bound
        if self.op == ">":
            return diff > self.bound
        if self.op == ">=":
            return diff >= self.bound
        return diff == self.bound

    def __repr__(self):
        lhs = self.clock if self.other is None else f"{self.clock}-{self.other}"
        return f"{lhs} {self.op} {self.bound}"


class Location:
    """A control location of a template."""

    __slots__ = ("name", "invariant", "committed", "urgent", "rate")

    def __init__(self, name, invariant=(), committed=False, urgent=False,
                 rate=None):
        if committed and urgent:
            raise ModelError(f"{name}: a location is committed or urgent, "
                             "not both")
        self.name = name
        self.invariant = tuple(invariant)
        self.committed = committed
        self.urgent = urgent
        #: Exponential delay rate for the SMC stochastic semantics when the
        #: invariant gives no upper bound (paper, Section II-c).
        self.rate = rate

    def __repr__(self):
        flags = "committed " if self.committed else (
            "urgent " if self.urgent else "")
        return f"Location({flags}{self.name})"


class Edge:
    """A template edge.

    ``sync`` is ``None`` for internal edges or ``(channel_name, '!')`` /
    ``(channel_name, '?')``.  ``guard`` holds clock atoms; ``data_guard``
    a boolean expression/callable over the discrete variables; ``resets``
    a sequence of ``(clock_name, int_value)``; ``update`` a sequence of
    assignments and/or callables executed in order.
    """

    __slots__ = ("source", "target", "guard", "data_guard", "sync",
                 "resets", "update", "label", "controllable")

    def __init__(self, source, target, guard=(), data_guard=None, sync=None,
                 resets=(), update=(), label=None, controllable=False):
        self.source = source
        self.target = target
        self.guard = tuple(guard)
        self.data_guard = data_guard
        if sync is not None:
            channel, direction = sync
            if direction not in ("!", "?"):
                raise ModelError(f"bad sync direction {direction!r}")
            sync = (channel, direction)
        self.sync = sync
        self.resets = tuple(resets)
        self.update = tuple(update) if isinstance(update, (list, tuple)) \
            else (update,)
        self.label = label
        #: Timed-game ownership (repro.tiga): True for controller edges.
        self.controllable = controllable

    def __repr__(self):
        sync = f" {self.sync[0]}{self.sync[1]}" if self.sync else ""
        return f"Edge({self.source} ->{sync} {self.target})"


class Branch:
    """One probabilistic outcome of an edge: probability, target
    location, clock resets and data updates."""

    __slots__ = ("probability", "resets", "update", "target")

    def __init__(self, probability, target, resets=(), update=()):
        if probability < 0 or probability > 1:
            raise ModelError(f"bad branch probability {probability}")
        self.probability = float(probability)
        self.target = target
        self.resets = tuple(resets)
        self.update = tuple(update) if isinstance(update, (list, tuple)) \
            else (update,)

    def __repr__(self):
        return f"Branch({self.probability} -> {self.target})"


def edge_branches(edge):
    """The branches of any edge: a probabilistic edge's own
    (:class:`repro.pta.ProbEdge`), else the edge as one Dirac branch.

    A timed-automaton edge is the branch-free special case of a PTA
    edge, so every consumer of branches reads them through this view.
    """
    branches = getattr(edge, "branches", None)
    if branches is not None:
        return branches
    return (Branch(1.0, edge.target, edge.resets, edge.update),)


class Automaton:
    """A timed automaton template.

    >>> train = Automaton("Train", clocks=["x"])
    >>> _ = train.add_location("Safe", rate=1)
    >>> _ = train.add_location("Appr", invariant=[ClockAtom("x", "<=", 20)])
    >>> _ = train.add_edge("Safe", "Appr", sync=("appr", "!"),
    ...                    resets=[("x", 0)])
    >>> train.initial_location = "Safe"
    """

    def __init__(self, name, clocks=()):
        self.name = name
        self.clocks = tuple(clocks)
        self.locations = {}
        self.edges = []
        self.initial_location = None

    def add_location(self, name, invariant=(), committed=False, urgent=False,
                     rate=None):
        if name in self.locations:
            raise ModelError(f"{self.name}: location {name!r} already exists")
        loc = Location(name, invariant, committed, urgent, rate)
        self.locations[name] = loc
        if self.initial_location is None:
            self.initial_location = name
        return loc

    def add_edge(self, source, target, guard=(), data_guard=None, sync=None,
                 resets=(), update=(), label=None, controllable=False):
        for end in (source, target):
            if end not in self.locations:
                raise ModelError(f"{self.name}: unknown location {end!r}")
        for clock, _value in resets:
            if clock not in self.clocks:
                raise ModelError(f"{self.name}: unknown clock {clock!r}")
        edge = Edge(source, target, guard, data_guard, sync, resets, update,
                    label, controllable)
        self.edges.append(edge)
        return edge

    def edges_from(self, location):
        return [e for e in self.edges if e.source == location]

    def validate(self):
        """Sanity checks used by the network builder."""
        if self.initial_location is None:
            raise ModelError(f"{self.name}: no locations")
        known = set(self.clocks)
        for loc in self.locations.values():
            for atom in loc.invariant:
                self._check_atom(atom, known, f"invariant of {loc.name}")
        for edge in self.edges:
            for atom in edge.guard:
                self._check_atom(atom, known, f"guard of {edge!r}")
        return self

    def _check_atom(self, atom, known, where):
        if atom.clock not in known or (
                atom.other is not None and atom.other not in known):
            raise ModelError(
                f"{self.name}: unknown clock in {where}: {atom!r}")

    def __repr__(self):
        return (f"Automaton({self.name}, {len(self.locations)} locations, "
                f"{len(self.edges)} edges)")


# -- constraint-building helpers used by the models ---------------------------

def clk(clock, op, bound, other=None):
    """Shorthand for a :class:`ClockAtom`."""
    return ClockAtom(clock, op, bound, other)
