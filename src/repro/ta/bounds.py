"""Static LU-bounds and clock-activity analysis of a network.

Two classic pre-computations of the UPPAAL family, both fixpoints over
each process's location graph:

* **LU bounds** (Behrmann, Bouyer, Larsen, Pelánek): for every location
  and clock, the largest constant the clock can still be compared
  against in a lower (``x > c`` / ``x >= c``) resp. upper (``x < c`` /
  ``x <= c``) guard or invariant atom before it is next reset.  These
  feed :meth:`repro.dbm.DBM.extrapolate_lu`, a strictly coarser (often
  exponentially so) abstraction than the network-global maximal-constant
  k-extrapolation of :meth:`repro.dbm.DBM.extrapolate`.
* **Clock activity** (Daws, Yovine): a clock is *inactive* at a
  location when every path from it reaches a reset of the clock before
  any guard or invariant reads it.  Inactive clocks carry no
  information, so the zone graph frees them from the zone
  (:meth:`repro.dbm.DBM.free`), collapsing states that differ only in
  dead clock values.

Clocks are renamed apart by the network builder and an atom only ever
references clocks of its own template, so both fixpoints are exact when
run per process.  The two analyses are consumed differently:

* **Activity is location-dependent.**  ``inactive_for`` assembles the
  inactive-clock set per location *vector* on demand and interns the
  tuples, so repeated configurations share one object.  Freeing a dead
  clock is sound at exactly the locations the fixpoint marks, because
  the freed dimension is never read again before its next reset.
* **LU bounds are location-dependent too.**  ``lu_for`` assembles the
  L/U constant vectors per location vector the same way.  Feeding
  per-location rows to ``Extra+_LU`` is sound *because of the flow
  property the fixpoint enforces*: the bounds at a location dominate
  the bounds of every location reachable without resetting the clock,
  so the ``a_{<=LU}`` simulation established at extrapolation time
  stays a simulation across every later edge and delay — a point
  raised above ``L(here)`` stays above ``L(everywhere it can matter)``.
  Bounds functions *without* that monotonicity (e.g. raw per-location
  syntactic constants) would be unsound; the differential harness
  against :mod:`repro.mc.reference` is the guard rail.

Bound propagation is backwards over the location graph: a location
needs at least the constants of its own invariant and of the guards of
its outgoing edges, plus — for every clock an edge does *not* reset —
whatever the edge's target needs.  A reset (to any value) kills the
flow, because the clock's pre-edge value can no longer reach a later
comparison.  A probabilistic edge contributes one flow per branch, read
through :func:`repro.ta.syntax.edge_branches` (a plain edge is its own
single branch).  Activity uses the same flow with set union instead of
max.  Both lattices are finite (constants and clock sets from the
model), so round-robin iteration terminates.

Diagonal constraints (``x - y ~ c``) make LU extrapolation unsound
(Bouyer 2004); :attr:`NetworkBounds.has_diagonals` flags them so
:class:`~repro.ta.zonegraph.ZoneGraph` can fall back to classic
k-extrapolation, which handles them conservatively.
"""

from __future__ import annotations

from ..dbm.bounds import NO_BOUND
from .syntax import edge_branches

__all__ = ["NetworkBounds", "ProcessBounds", "network_bounds"]


def _branch_views(edge):
    """``(target, reset-clock-names)`` per branch of an edge."""
    return [(b.target, frozenset(c for c, _v in b.resets))
            for b in edge_branches(edge)]


class ProcessBounds:
    """Per-location LU bounds and inactive clocks of one process.

    ``lu_rows[li]`` lists ``(global_clock_index, L, U)`` for every
    clock of the process at location index ``li``; ``inactive[li]``
    lists the global indices of the clocks inactive there.
    """

    __slots__ = ("process", "has_diagonals", "lu_rows", "inactive")

    def __init__(self, process, has_diagonals, lu_rows, inactive):
        self.process = process
        self.has_diagonals = has_diagonals
        self.lu_rows = lu_rows
        self.inactive = inactive

    def __repr__(self):
        return (f"ProcessBounds({self.process.name}, "
                f"{len(self.lu_rows)} locations)")


def _analyse_process(process):
    """Run both fixpoints over one process's automaton."""
    automaton = process.automaton
    nloc = len(process.location_names)
    clocks = automaton.clocks
    lower = [dict.fromkeys(clocks, NO_BOUND) for _ in range(nloc)]
    upper = [dict.fromkeys(clocks, NO_BOUND) for _ in range(nloc)]
    read = [set() for _ in range(nloc)]
    diagonals = False

    def merge_atom(atom, li):
        nonlocal diagonals
        if atom.other is not None:
            # Diagonal atom: mark the analysis degenerate and fold the
            # constant into both clocks' bounds anyway, so the tables
            # stay safe even if a caller ignores has_diagonals.
            diagonals = True
            c = abs(atom.bound)
            for name in (atom.clock, atom.other):
                if lower[li][name] < c:
                    lower[li][name] = c
                if upper[li][name] < c:
                    upper[li][name] = c
                read[li].add(name)
            return
        c = atom.bound
        if atom.op in ("<", "<=", "=="):
            if upper[li][atom.clock] < c:
                upper[li][atom.clock] = c
        if atom.op in (">", ">=", "=="):
            if lower[li][atom.clock] < c:
                lower[li][atom.clock] = c
        read[li].add(atom.clock)

    for li, loc in enumerate(process.locations):
        for atom in loc.invariant:
            merge_atom(atom, li)
    flows = []   # (source index, target index, reset clock names)
    for edge in automaton.edges:
        src = process.location_index[edge.source]
        for atom in edge.guard:
            merge_atom(atom, src)
        for target, resets in _branch_views(edge):
            flows.append((src, process.location_index[target], resets))

    active = [set(r) for r in read]
    changed = True
    while changed:
        changed = False
        for src, tgt, resets in flows:
            src_lower, tgt_lower = lower[src], lower[tgt]
            src_upper, tgt_upper = upper[src], upper[tgt]
            for clock in clocks:
                if clock in resets:
                    continue
                c = tgt_lower[clock]
                if src_lower[clock] < c:
                    src_lower[clock] = c
                    changed = True
                c = tgt_upper[clock]
                if src_upper[clock] < c:
                    src_upper[clock] = c
                    changed = True
            grow = active[tgt] - resets - active[src]
            if grow:
                active[src] |= grow
                changed = True

    index = process.clock_index
    lu_rows = tuple(
        tuple((index[c], lower[li][c], upper[li][c]) for c in clocks)
        for li in range(nloc))
    inactive = tuple(
        tuple(index[c] for c in clocks if c not in active[li])
        for li in range(nloc))
    return ProcessBounds(process, diagonals, lu_rows, inactive)


class NetworkBounds:
    """LU-bounds and activity tables of a whole network.

    ``extra_constants`` (global clock index -> constant, e.g. from a
    time-bounded query) floor both bounds of the clock everywhere and
    keep it permanently active, mirroring
    :meth:`repro.ta.network.Network.max_constants`.
    """

    __slots__ = ("network", "has_diagonals", "per_process", "_extra",
                 "_lu_cache", "_inactive_cache", "_row_intern")

    def __init__(self, network, extra_constants=None):
        self.network = network.freeze()
        self.per_process = tuple(
            _analyse_process(p) for p in network.processes)
        self.has_diagonals = any(
            p.has_diagonals for p in self.per_process)
        self._extra = dict(extra_constants) if extra_constants else {}
        self._lu_cache = {}
        self._inactive_cache = {}
        self._row_intern = {}

    def lu_for(self, locs):
        """``(lowers, uppers)`` tuples for a location vector.

        Indexed by global clock index (reference clock 0 gets constant
        0), ready to hand to :meth:`repro.dbm.DBM.extrapolate_lu`.
        Assembled from the per-location fixpoint rows on demand and
        interned, so location vectors with identical tables share one
        pair (and the common symmetric configurations hit the same
        object).
        """
        pair = self._lu_cache.get(locs)
        if pair is not None:
            return pair
        n = self.network.dbm_size
        lowers = [NO_BOUND] * n
        uppers = [NO_BOUND] * n
        lowers[0] = uppers[0] = 0
        for bounds, li in zip(self.per_process, locs):
            for gi, low, up in bounds.lu_rows[li]:
                lowers[gi] = low
                uppers[gi] = up
        for gi, value in self._extra.items():
            if lowers[gi] < value:
                lowers[gi] = value
            if uppers[gi] < value:
                uppers[gi] = value
        intern = self._row_intern
        low_row = tuple(lowers)
        up_row = tuple(uppers)
        pair = (intern.setdefault(low_row, low_row),
                intern.setdefault(up_row, up_row))
        pair = intern.setdefault(pair, pair)
        self._lu_cache[locs] = pair
        return pair

    def inactive_for(self, locs):
        """Global indices of the clocks inactive at a location vector."""
        row = self._inactive_cache.get(locs)
        if row is not None:
            return row
        extra = self._extra
        row = tuple(gi
                    for bounds, li in zip(self.per_process, locs)
                    for gi in bounds.inactive[li]
                    if gi not in extra)
        row = self._row_intern.setdefault(row, row)
        self._inactive_cache[locs] = row
        return row

    def __repr__(self):
        return (f"NetworkBounds({self.network.name}, "
                f"diagonals={self.has_diagonals})")


def network_bounds(network, extra_constants=None):
    """The :class:`NetworkBounds` of a network.

    The analysis only depends on the frozen structure, so it is one of
    the network's :meth:`~repro.ta.Network.derived` tables, keyed by
    the extra constants: one fixpoint run per network no matter how
    many zone graphs are built over it.
    """
    return network.derived(NetworkBounds, extra_constants)
