"""Difference bound matrices (DBMs) — the zone representation.

A DBM over clocks ``x_1 .. x_{n-1}`` (plus the reference clock ``x_0 = 0``)
stores, for every ordered pair, the tightest known bound on ``x_i - x_j``.
All operations below keep the matrix in *canonical* (all-pairs-shortest-
path closed) form, which makes emptiness, inclusion and hashing cheap.

The algorithms follow Bengtsson & Yi, "Timed Automata: Semantics,
Algorithms and Tools" — the same core as UPPAAL's C++ DBM library, which
this module replaces (see DESIGN.md).
"""

from __future__ import annotations

from operator import lt as _bound_lt

from ..core.errors import ModelError
from .bounds import (
    INF,
    LE_ZERO,
    LT_ZERO,
    bound_str,
    le,
    lt,
)


class DBM:
    """A canonical difference bound matrix.

    ``size`` counts the reference clock: a model with ``k`` real clocks
    uses ``DBM(k + 1)``.  The default instance is the zone where all
    clocks equal zero (the initial state of a timed automaton).
    """

    __slots__ = ("size", "m")

    def __init__(self, size, _raw=None):
        if size < 1:
            raise ModelError("DBM needs at least the reference clock")
        self.size = size
        if _raw is not None:
            self.m = _raw
        else:
            # All clocks exactly zero: every difference is <= 0.
            self.m = [LE_ZERO] * (size * size)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, size):
        """The zone with every clock equal to 0."""
        return cls(size)

    @classmethod
    def universal(cls, size):
        """The zone containing every clock valuation (all non-negative)."""
        raw = [INF] * (size * size)
        for i in range(size):
            raw[i * size + i] = LE_ZERO
            raw[i] = LE_ZERO  # row 0: 0 - x_i <= 0
        raw[0] = LE_ZERO
        return cls(size, raw)

    def copy(self):
        return DBM(self.size, list(self.m))

    # -- basic accessors ---------------------------------------------------

    def get(self, i, j):
        """Encoded bound on ``x_i - x_j``."""
        return self.m[i * self.size + j]

    def _set(self, i, j, b):
        self.m[i * self.size + j] = b

    def is_empty(self):
        return self.m[0] < LE_ZERO

    def _mark_empty(self):
        self.m[0] = LT_ZERO
        return self

    # -- canonical form ----------------------------------------------------

    def close(self):
        """Floyd–Warshall all-pairs tightening; detects emptiness.

        The innermost step inlines :func:`~repro.dbm.bounds.bound_add`
        (both operands are already known finite) — this triple loop is
        the single hottest piece of arithmetic in every zone engine.
        """
        n = self.size
        m = self.m
        for k in range(n):
            row_k = k * n
            for i in range(n):
                row_i = i * n
                d_ik = m[row_i + k]
                if d_ik >= INF:
                    continue
                for j in range(n):
                    d_kj = m[row_k + j]
                    if d_kj >= INF:
                        continue
                    via = (((d_ik >> 1) + (d_kj >> 1)) << 1) \
                        | (d_ik & d_kj & 1)
                    if via < m[row_i + j]:
                        m[row_i + j] = via
        for i in range(n):
            if m[i * n + i] < LE_ZERO:
                return self._mark_empty()
            m[i * n + i] = LE_ZERO
        return self

    def _close_one(self, a, b):
        """Incremental closure after tightening entry (a, b)."""
        n = self.size
        m = self.m
        d_ab = m[a * n + b]
        if d_ab >= INF:
            return self
        row_b = b * n
        for i in range(n):
            d_ia = m[i * n + a]
            if d_ia >= INF:
                continue
            d_iab = (((d_ia >> 1) + (d_ab >> 1)) << 1) | (d_ia & d_ab & 1)
            row_i = i * n
            for j in range(n):
                d_bj = m[row_b + j]
                if d_bj >= INF:
                    continue
                via = (((d_iab >> 1) + (d_bj >> 1)) << 1) \
                    | (d_iab & d_bj & 1)
                if via < m[row_i + j]:
                    m[row_i + j] = via
        for i in range(n):
            if m[i * n + i] < LE_ZERO:
                return self._mark_empty()
        return self

    # -- zone operations (all in-place, returning self) ---------------------

    def constrain(self, i, j, encoded_bound):
        """Intersect with ``x_i - x_j  (< | <=)  c`` (encoded bound).

        ``i`` and ``j`` must be distinct clock indices: a diagonal or
        out-of-range entry would silently corrupt the canonical form.
        """
        n = self.size
        if i == j or not 0 <= i < n or not 0 <= j < n:
            raise ModelError(f"bad constraint indices ({i}, {j})")
        if self.is_empty():
            return self
        current = self.m[i * n + j]
        if encoded_bound >= current:
            return self  # no information added
        # Quick emptiness check against the reverse bound (inlined
        # bound_add; the sum only matters when both operands are finite).
        rev = self.m[j * n + i]
        if (rev < INF and encoded_bound < INF
                and ((((encoded_bound >> 1) + (rev >> 1)) << 1)
                     | (encoded_bound & rev & 1)) < LE_ZERO):
            return self._mark_empty()
        self.m[i * n + j] = encoded_bound
        return self._close_one(i, j)

    def up(self):
        """Delay (future): remove all upper bounds on clocks."""
        if self.is_empty():
            return self
        n = self.size
        for i in range(1, n):
            self.m[i * n] = INF
        return self

    def down(self):
        """Past: lower all clocks towards zero."""
        if self.is_empty():
            return self
        n = self.size
        m = self.m
        for j in range(1, n):
            best = LE_ZERO
            for i in range(1, n):
                if i != j and m[i * n + j] < best:
                    best = m[i * n + j]
            m[j] = best
        return self

    def reset(self, clock, value=0):
        """Set ``x_clock := value`` (value must be a non-negative int)."""
        if self.is_empty():
            return self
        if clock <= 0 or clock >= self.size:
            raise ModelError(f"bad clock index {clock}")
        n = self.size
        m = self.m
        v_le = le(value)
        v_neg = le(-value)
        for i in range(n):
            if i == clock:
                continue
            # x_clock - x_i = value - x_i  <=  value + (0 - x_i)
            b = m[i]
            m[clock * n + i] = INF if b >= INF else (
                (((v_le >> 1) + (b >> 1)) << 1) | (v_le & b & 1))
            # x_i - x_clock  <=  x_i - 0 + (-value)
            b = m[i * n]
            m[i * n + clock] = INF if b >= INF else (
                (((b >> 1) + (v_neg >> 1)) << 1) | (b & v_neg & 1))
        m[clock * n + clock] = LE_ZERO
        return self

    def free(self, clock):
        """Remove all constraints on one clock (it may take any value)."""
        if self.is_empty():
            return self
        n = self.size
        m = self.m
        for i in range(n):
            if i != clock:
                m[clock * n + i] = INF
                m[i * n + clock] = m[i * n]
        return self

    def free_clock(self, clock):
        """Checked :meth:`free`, for the clock-activity reduction.

        Freeing the reference clock or an out-of-range index would
        silently corrupt the matrix, so the analysis-facing entry point
        validates like :meth:`reset` does.
        """
        if clock <= 0 or clock >= self.size:
            raise ModelError(f"bad clock index {clock}")
        return self.free(clock)

    def intersect(self, other):
        """Zone intersection (both operands canonical)."""
        if self.size != other.size:
            raise ModelError("DBM size mismatch")
        if self.is_empty():
            return self
        if other.is_empty():
            return self._mark_empty()
        changed = False
        for idx, b in enumerate(other.m):
            if b < self.m[idx]:
                self.m[idx] = b
                changed = True
        if changed:
            self.close()
        return self

    def extrapolate(self, max_constants):
        """Classic k-extrapolation (maximal-constant abstraction).

        ``max_constants[i]`` is the largest constant clock ``i`` is ever
        compared against (0 for the reference clock).  Guarantees a finite
        zone graph while preserving reachability for diagonal-free TA.
        """
        if self.is_empty():
            return self
        if len(max_constants) != self.size:
            raise ModelError("need one max constant per clock (incl. ref)")
        return self.extrapolate_k(*k_bounds(max_constants))

    def extrapolate_k(self, uppers, lowers):
        """:meth:`extrapolate` with its bounds encoded by
        :func:`k_bounds`, so that a zone graph encodes them once.

        An entry above its row clock's ``<= k`` ceiling is forgotten
        (INF) and one below its column clock's ``< -k`` floor is raised
        to it; the diagonal is left alone.
        """
        if self.is_empty():
            return self
        n = self.size
        m = self.m
        changed = False
        for i in range(n):
            row_i = i * n
            upper_i = uppers[i]
            for j in range(n):
                if i == j:
                    continue
                b = m[row_i + j]
                if b >= INF:
                    continue
                if b > upper_i:
                    m[row_i + j] = INF
                    changed = True
                elif b < lowers[j]:
                    m[row_i + j] = lowers[j]
                    changed = True
        if changed:
            self.close()
        return self

    def extrapolate_lu(self, lowers, uppers):
        """Extra+_LU: LU-bounds extrapolation with diagonal tightening.

        ``lowers[i]`` / ``uppers[i]`` are the largest constants clock
        ``i`` can still be compared against in lower (``x > c`` /
        ``x >= c``) resp. upper (``x < c`` / ``x <= c``) guard or
        invariant atoms before its next reset, as *plain integers*
        (:data:`~repro.dbm.bounds.NO_BOUND` when no such atom exists;
        index 0 is the reference clock with both constants 0).

        The rule table (primes are the new entries, ``v`` the value of
        ``c_ij`` and ``min(x)`` the zone-global minimum of a clock,
        read off row 0)::

            c'_ij = INF         if v > L(x_i), i != 0
                  = INF         if min(x_i) > L(x_i), i != 0
                  = INF         if min(x_j) > U(x_j), i != 0, j != 0
                  = (-U(x_j),<) if min(x_j) > U(x_j), i == 0
                  = c_ij        otherwise

        Upper bounds answer only to L of the *row* clock — a clock's
        ceiling may be forgotten exactly when it already tops every
        lower-bound guard, so letting it grow enables nothing new —
        and lower bounds only to U of the *column* clock: a clock may
        drift down to just above U, where every upper-bound guard is
        already false.  The zone-global ("+") conditions apply the
        same logic from the zone's minima.  Strictly coarser than
        classic k-extrapolation yet location-reachability-exact for
        diagonal-free TA (Behrmann, Bouyer, Larsen, Pelánek 2006).
        """
        if self.is_empty():
            return self
        n = self.size
        if len(lowers) != n or len(uppers) != n:
            raise ModelError("need one L and one U constant per clock")
        m = self.m
        changed = False
        # Zone-global minimum of each clock, snapshotted before row 0
        # is rewritten below.
        mins = [-(m[j] >> 1) for j in range(n)]
        for i in range(1, n):
            row = i * n
            l_i = lowers[i]
            row_free = mins[i] > l_i
            for j in range(n):
                if i == j:
                    continue
                b = m[row + j]
                if b >= INF:
                    continue
                if row_free or (b >> 1) > l_i \
                        or (j and mins[j] > uppers[j]):
                    m[row + j] = INF
                    changed = True
        for j in range(1, n):
            u_j = uppers[j]
            if mins[j] > u_j:
                # Never relax row 0 past <=0: clocks stay non-negative
                # even when x_j has no upper guard at all.
                nb = LE_ZERO if u_j < 0 else ((-u_j) << 1)
                if nb > m[j]:
                    m[j] = nb
                    changed = True
        if changed:
            self.close()
        return self

    # -- relations -----------------------------------------------------------

    def includes(self, other):
        """True when this zone is a superset of ``other`` (both canonical)."""
        mine = self.m
        theirs = other.m
        if theirs[0] < LE_ZERO:   # other empty (inlined is_empty)
            return True
        if mine[0] < LE_ZERO:
            return False
        if mine == theirs:  # C-level compare; also catches interned aliases
            return True
        # Violated iff some entry of ours is tighter; map() keeps the
        # element-wise comparison in C (this is the passed-list hot loop).
        return not any(map(_bound_lt, mine, theirs))

    def past_includes(self, other):
        """True when the past of this zone (:meth:`down`) includes
        ``other`` (both canonical), decided without building the past.

        Moving a point down the diagonal keeps every clock difference,
        so the canonical past has this zone's rows ``1..n-1`` and a new
        row 0 bounded by ``<= 0``.  ``other`` fits under those rows
        exactly when its own rows ``1..n-1`` do and its clocks are
        non-negative: canonicity then gives ``0 - x_j <= (0 - x_i) +
        (x_i - x_j)`` for each new row-0 entry.
        """
        mine = self.m
        theirs = other.m
        if theirs[0] < LE_ZERO:
            return True
        if mine[0] < LE_ZERO:
            return False
        n = self.size
        return (max(theirs[:n]) <= LE_ZERO
                and not any(map(_bound_lt, mine[n:], theirs[n:])))

    def __eq__(self, other):
        if not isinstance(other, DBM):
            return NotImplemented
        if self.size != other.size:
            return False
        if self.is_empty() and other.is_empty():
            return True
        return self.m == other.m

    def __hash__(self):
        if self.is_empty():
            return hash(("DBM-empty", self.size))
        return hash(tuple(self.m))

    def key(self):
        """Hashable snapshot for state-space sets."""
        if self.is_empty():
            return ("empty", self.size)
        return tuple(self.m)

    # -- queries ---------------------------------------------------------------

    def contains_point(self, valuation):
        """True when the concrete clock valuation lies in the zone.

        ``valuation`` lists the values of clocks 1..n-1 (reference
        implicit).  Used heavily by the property-based tests.
        """
        if self.is_empty():
            return False
        values = (0.0,) + tuple(valuation)
        n = self.size
        for i in range(n):
            for j in range(n):
                b = self.m[i * n + j]
                if b >= INF:
                    continue
                diff = values[i] - values[j]
                limit = b >> 1
                if b & 1:
                    if diff > limit:
                        return False
                elif diff >= limit:
                    return False
        return True

    def upper_bound(self, clock):
        """Encoded bound on ``x_clock`` from above (INF when unbounded)."""
        return self.m[clock * self.size]

    def lower_bound(self, clock):
        """The minimum value of ``x_clock`` in the zone (an integer)."""
        return -(self.m[clock] >> 1)

    def __repr__(self):
        if self.is_empty():
            return f"DBM(size={self.size}, empty)"
        n = self.size
        rows = []
        for i in range(n):
            rows.append(" ".join(
                bound_str(self.m[i * n + j]).rjust(7) for j in range(n)))
        return f"DBM(size={n},\n  " + "\n  ".join(rows) + ")"


def k_bounds(max_constants):
    """The encoded ``(uppers, lowers)`` of :meth:`DBM.extrapolate_k`:
    ``<= k`` and ``< -k`` per clock maximal constant ``k``."""
    return (tuple(le(c) for c in max_constants),
            tuple(lt(-c) for c in max_constants))
