"""The pre-core reachability engine, kept verbatim as a test oracle.

This is the seed implementation of :func:`repro.mc.reachability.explore`
before the shared exploration core landed: a ``list.pop(0)`` waiting
list (O(n) shift per dequeue, O(n²) over a search) and per-state
predecessor-chain tuples (O(depth) copy per enqueue).  It is retained —
not exported from :mod:`repro.mc` — for two purposes only:

* the old-vs-new differential suite in ``tests/test_explorecore.py``
  asserts that the production engine returns bit-identical verdicts,
  witnesses, state counts and observability totals;
* ``benchmarks/bench_engines.py --explore`` measures the wall-clock
  improvement of the rewritten engine against this baseline.

It also keeps the pre-fusion deadlock check as the oracle of
:mod:`repro.mc.deadlock`: a second fire loop per state that collects
each fire's guard zone, then one federation ``down`` and ``subtract``
(:func:`reference_has_deadlock`).

Do not use it in production code paths.
"""

from __future__ import annotations

from ..dbm.bounds import LE_ZERO
from ..dbm.federation import Federation
from ..obs import active, span
from ..ta.transitions import delay_forbidden
from .reachability import Reachability, _cache_snapshot, _record_search


def _seed_includes(mine, other):
    """The seed's ``DBM.includes``: a Python-level generator scan.

    Preserved so the benchmark baseline measures the pre-PR hot loop,
    not the C-level ``map(lt, ...)`` rewrite that landed with the core.
    Semantically identical to :meth:`repro.dbm.DBM.includes`.
    """
    if other.m[0] < LE_ZERO:
        return True
    if mine.m[0] < LE_ZERO:
        return False
    return all(a >= b for a, b in zip(mine.m, other.m))


class ReferencePassedList:
    """The seed passed list: inclusion scans without identity pre-checks."""

    def __init__(self, use_inclusion=True):
        self.use_inclusion = use_inclusion
        self._zones = {}
        self.size = 0
        self.subsumed = 0
        self.evicted = 0

    def add_if_new(self, state):
        key = state.discrete_key()
        bucket = self._zones.setdefault(key, [])
        if self.use_inclusion:
            for zone in bucket:
                if _seed_includes(zone, state.zone):
                    self.subsumed += 1
                    return False
            kept = [z for z in bucket if not _seed_includes(state.zone, z)]
            self.size -= len(bucket) - len(kept)
            self.evicted += len(bucket) - len(kept)
            kept.append(state.zone)
            self._zones[key] = kept
            self.size += 1
            return True
        zone_key = state.zone.key()
        for zone in bucket:
            if zone.key() == zone_key:
                self.subsumed += 1
                return False
        bucket.append(state.zone)
        self.size += 1
        return True


def reference_explore(graph, goal=None, on_state=None, use_inclusion=True,
                      max_states=None):
    """Breadth-first symbolic exploration, seed algorithmics.

    Same contract and instrumentation as the production
    :func:`repro.mc.reachability.explore` (BFS order only).
    """
    collector = active()
    stats = getattr(graph, "stats", None)
    zones_before = stats.snapshot() if stats is not None else None
    caches_before = _cache_snapshot(graph)
    with span("mc.explore") as sp:
        initial = graph.initial()
        passed = ReferencePassedList(use_inclusion)
        passed.add_if_new(initial)
        # Each waiting entry carries its predecessor chain for the trace.
        waiting = [(initial, ((None, initial),))]
        explored = 0
        result = None
        while waiting:
            state, chain = waiting.pop(0)
            explored += 1
            if on_state is not None:
                on_state(state)
            if goal is not None and goal(state):
                result = Reachability(True, state, list(chain), explored,
                                      passed.size)
                break
            if max_states is not None and explored >= max_states:
                break
            for transition, succ in graph.successors(state):
                if passed.add_if_new(succ):
                    waiting.append((succ, chain + ((transition, succ),)))
        if result is None:
            result = Reachability(False, None, None, explored, passed.size)
        sp.set("found", result.found)
        sp.set("states_explored", explored)
        sp.set("states_stored", passed.size)
    if collector is not None:
        _record_search(collector, result, passed, graph, zones_before,
                       caches_before)
    return result


def enabled_action_zone_parts(graph, state):
    """For each enabled transition, the part of the zone where its
    clock guards hold (before delay): the deadlock check's own fire
    loop, separate from the graph's successor computation."""
    parts = []
    config = graph._config_for(state.locs, state.valuation)
    for fire in config.fires:
        zone = state.zone.copy()
        graph.stats.zones_created += 1
        for group in fire.guard_groups:
            for i, j, b in group:
                zone.constrain(i, j, b)
                graph.stats.constraints_applied += 1
            if zone.is_empty():
                break
        if zone.is_empty():
            continue
        # The step must also land in a non-empty target situation:
        # apply resets and target invariants.
        probe = zone.copy()
        for clock_index, value in fire.resets:
            probe.reset(clock_index, value)
        probe = graph._apply_invariants(probe, fire.locs)
        if probe.is_empty():
            continue
        parts.append(zone)
    return parts


def reference_deadlocked_part(graph, state):
    """The sub-zone of ``state`` whose points deadlock, by the
    federation route on every state."""
    network = graph.network
    parts = enabled_action_zone_parts(graph, state)
    whole = Federation.from_zone(state.zone)
    if not parts:
        return whole
    enabled = Federation(network.dbm_size, parts)
    if not delay_forbidden(network, state.locs):
        enabled = enabled.down()
    return whole.subtract(enabled)


def reference_has_deadlock(graph, state):
    """The deadlock oracle: True when some point of ``state``
    deadlocks."""
    return not reference_deadlocked_part(graph, state).is_empty()
