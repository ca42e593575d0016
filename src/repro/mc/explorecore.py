"""The shared symbolic-exploration core.

Every zone-based engine of the paper's UPPAAL family — reachability,
liveness graph materialisation, CORA cost searches — reduces to the
same passed/waiting exploration over symbolic states.  This module
owns the data structures that make that hot path linear instead of
quadratic:

* :class:`PassedWaitingList` — the unified passed/waiting store:
  bidirectional zone subsumption over *both* populations in one bucket
  scan, with lazy dead-marking of evicted frontier entries
  (:class:`SearchNode`), so a large zone arriving late still cancels
  the smaller states queued before it.
* :class:`TraceNode` — parent-pointer trace records.  The seed engine
  copied the whole predecessor chain into every enqueued state
  (O(depth) per state, quadratic memory on deep models like Fischer);
  a :class:`TraceNode` shares the prefix and the full trace is
  reconstructed only when a witness is actually found
  (:func:`reconstruct_trace`).
* :class:`ZoneStore` — a hash-consing layer interning canonical DBMs by
  :meth:`~repro.dbm.DBM.key`.  Passed-list buckets, federations and
  graph nodes then share one object per distinct zone, so equality
  pre-checks become identity hits and node keys can use ``id(zone)``
  instead of re-hashing the full matrix.  Interning is physical: its
  sharing events are reported as the ``mc.zone_interned`` counter,
  apart from the logical counters the differential tests compare.

The waiting lists themselves are plain :class:`collections.deque`
objects, popped oldest-first by :func:`repro.mc.explore` (as by the
TIGA fixpoints) and newest-first by :func:`repro.mc.build_graph` (as
by ECDAR's searches); the seed engine's ``list.pop(0)`` was an O(n)
shift per dequeue and therefore O(n²) over a search.  Memo tables are
not kept here: see :mod:`repro.core.memo`.
"""

from __future__ import annotations

from operator import lt

from ..core.errors import SearchLimitError
from ..dbm.bounds import LE_ZERO

__all__ = [
    "PassedWaitingList",
    "SearchLimitError",
    "SearchNode",
    "TraceNode",
    "ZoneStore",
    "reconstruct_trace",
]


class TraceNode:
    """One step of a search tree: a state plus a pointer to its parent.

    Enqueuing a successor costs O(1) regardless of depth; the
    (transition, state) step list of the seed engine is rebuilt by
    :func:`reconstruct_trace` only for the single witness node.
    """

    __slots__ = ("state", "transition", "parent")

    def __init__(self, state, transition=None, parent=None):
        self.state = state
        self.transition = transition
        self.parent = parent

    def __repr__(self):
        depth = sum(1 for _ in self.ancestors())
        return f"TraceNode(depth={depth}, state={self.state!r})"

    def ancestors(self):
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class SearchNode(TraceNode):
    """A :class:`TraceNode` that is also a unified-list waiting entry.

    ``waiting`` is True while the node sits in the frontier; ``dead``
    marks it evicted by a later, strictly larger zone with the same
    discrete configuration.  Dead nodes are skipped lazily on dequeue —
    O(1) per eviction instead of scanning the frontier deque.
    """

    __slots__ = ("waiting", "dead")

    def __init__(self, state, transition=None, parent=None):
        super().__init__(state, transition, parent)
        self.waiting = False
        self.dead = False


def reconstruct_trace(node):
    """The ``[(transition, state), ...]`` steps from the root to ``node``.

    The root carries transition ``None``, matching the seed engine's
    trace format (and :func:`repro.mc.diagnostics.format_trace`).
    """
    if node is None:
        return None
    steps = []
    while node is not None:
        steps.append((node.transition, node.state))
        node = node.parent
    steps.reverse()
    return steps


class PassedWaitingList:
    """Unified passed/waiting store with bidirectional subsumption.

    One bucket per discrete configuration holds every zone the search
    has committed to (explored *or* still waiting), so a candidate
    state is checked — and existing entries are evicted — against both
    populations in a single scan:

    * a new zone included in any stored zone is dropped
      (``subsumed``, flushed as ``mc.passed_subsumed``);
    * stored zones strictly included in the new zone are evicted
      (``evicted``); when the evicted entry is still *waiting*, its
      :class:`SearchNode` is additionally marked ``dead`` so the
      frontier never explores it (``waiting_subsumed``, a new saving
      the split passed-list/frontier discipline could not express).

    ``evict_waiting=False`` keeps dead-marking off — evicted zones
    leave the store but their frontier entries still run — which
    reproduces the pre-unification engine bit-for-bit (the differential
    anchor against :mod:`repro.mc.reference`).

    Zones interned by the graph's :class:`ZoneStore` make the scans
    cheap: a re-visited zone is the *same object* as the stored one, so
    the per-bucket identity memo short-circuits before any matrix
    comparison.  The memo is sound because bucket coverage never
    shrinks — eviction only replaces zones with strict supersets.
    """

    __slots__ = ("use_inclusion", "evict_waiting", "_zones", "_subsumed",
                 "size", "subsumed", "evicted", "waiting_subsumed")

    def __init__(self, use_inclusion=True, evict_waiting=True):
        self.use_inclusion = use_inclusion
        self.evict_waiting = evict_waiting
        self._zones = {}     # discrete key -> [(zone, node), ...]
        # discrete key -> {id(zone): zone} of every zone the bucket has
        # ever subsumed (including its own members); holding the zone
        # object keeps its id() from being recycled.
        self._subsumed = {}
        self.size = 0
        self.subsumed = 0
        self.evicted = 0
        self.waiting_subsumed = 0

    def add_if_new(self, key, zone, node=None):
        """True when the entry is not subsumed (and is now recorded)."""
        bucket = self._zones.get(key)
        if bucket is None:
            bucket = self._zones[key] = []
            self._subsumed[key] = {}
        seen = self._subsumed[key]
        if id(zone) in seen:
            self.subsumed += 1
            return False
        if self.use_inclusion:
            # DBM.includes inlined on the raw matrices: ``a`` includes
            # ``b`` when no entry of ``a`` is tighter, or ``b`` is empty.
            theirs = zone.m
            if theirs[0] < LE_ZERO and bucket:
                self.subsumed += 1
                seen[id(zone)] = zone
                return False
            for stored, _node in bucket:
                if not any(map(lt, stored.m, theirs)):
                    self.subsumed += 1
                    seen[id(zone)] = zone
                    return False
            kept = []
            evict_waiting = self.evict_waiting
            for entry in bucket:
                mine = entry[0].m
                if mine[0] < LE_ZERO or not any(map(lt, theirs, mine)):
                    self.evicted += 1
                    self.size -= 1
                    stored_node = entry[1]
                    if (evict_waiting and stored_node is not None
                            and stored_node.waiting):
                        stored_node.dead = True
                        self.waiting_subsumed += 1
                else:
                    kept.append(entry)
            kept.append((zone, node))
            self._zones[key] = kept
            seen[id(zone)] = zone
            self.size += 1
            return True
        zone_key = zone.key()
        for stored, _node in bucket:
            if stored.key() == zone_key:
                self.subsumed += 1
                seen[id(zone)] = zone
                return False
        bucket.append((zone, node))
        seen[id(zone)] = zone
        self.size += 1
        return True

    def __len__(self):
        return self.size

    def __repr__(self):
        return (f"PassedWaitingList({self.size} stored, "
                f"{self.subsumed} subsumed, {self.evicted} evicted, "
                f"{self.waiting_subsumed} waiting killed)")


class ZoneStore:
    """Hash-consing for canonical DBMs.

    :meth:`intern` maps a zone to the single canonical instance stored
    for its :meth:`~repro.dbm.DBM.key`.  Interned zones are **shared**:
    callers must copy before mutating (all engines already do — DBM
    operations mutate fresh copies only).

    ``hits`` counts intern calls resolved to an existing instance (the
    sharing events flushed as ``mc.zone_interned``); ``distinct`` is the
    store size.  The store also keeps every interned zone alive, which
    is what makes ``id(zone)`` a sound cache/graph key for its lifetime.
    """

    __slots__ = ("_zones", "hits")

    def __init__(self):
        self._zones = {}
        self.hits = 0

    def intern(self, zone):
        key = zone.key()
        existing = self._zones.get(key)
        if existing is not None:
            self.hits += 1
            return existing
        self._zones[key] = zone
        return zone

    @property
    def distinct(self):
        return len(self._zones)

    def __len__(self):
        return len(self._zones)

    def __repr__(self):
        return f"ZoneStore({len(self._zones)} zones, {self.hits} hits)"
