"""The one bounded memo table: tables that outlive a single search.

A table owned by one search (the zone graph's configurations, ECDAR's
moves) is a plain ``dict``: it holds at most one entry per
configuration or state the search reaches, and the search's own state
cap bounds that.  A table shared across simulation runs or searches
(the integer-clock semantics' configurations) has no such cap, so it
is a :class:`MemoTable`, bounded by generations.  The two simulators'
plans (the stochastic simulator's configuration plans, the modes
simulator's step plans) link to their successors' plans, so they live
in a :class:`PlanTable`, the :class:`MemoTable` that unlinks what it
drops.  Data derived from a frozen network itself lives on the network
(:meth:`repro.ta.Network.derived`).
"""

from __future__ import annotations

#: Entries of a :class:`MemoTable` before it renews.  Each entry is a
#: handful of machine words; 64k entries cover the benchmark models
#: many times over while bounding memory on adversarial ones.
MEMO_SIZE = 1 << 16


class MemoTable(dict):
    """A ``dict`` bounded by generations: :meth:`add` on a table of
    ``maxsize`` entries first drops them all (:meth:`renew`) and counts
    a new ``generation``.

    Readers look entries up with the plain :meth:`dict.get`, so a hit
    costs no bookkeeping.  ``maxsize`` is an attribute, not a
    parameter, so tests may lower it on one table.
    """

    __slots__ = ("maxsize", "generation")

    def __init__(self):
        super().__init__()
        self.maxsize = MEMO_SIZE
        self.generation = 0

    def add(self, key, value):
        if len(self) >= self.maxsize:
            self.renew()
        self[key] = value

    def renew(self):
        """Drop every entry and count a new generation."""
        self.clear()
        self.generation += 1


class PlanTable(MemoTable):
    """A :class:`MemoTable` of simulation plans that link to their
    successors' plans: when it renews it also calls ``unlink()`` on
    every plan it drops, so at most ``maxsize`` plans stay reachable,
    plus the one each walk is standing on.  A walk standing on a
    dropped plan finds its successors in the new generation."""

    __slots__ = ()

    def renew(self):
        dropped = list(self.values())
        super().renew()
        for old in dropped:
            old.unlink()
