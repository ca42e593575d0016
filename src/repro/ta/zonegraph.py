"""Symbolic (zone-based) semantics of a network of timed automata.

States pair a discrete configuration (location vector + variable
valuation) with a DBM zone closed under delay, the classic UPPAAL
representation.  Successor zones are abstracted so exploration
terminates; the ``abstraction`` knob picks how coarsely:

``"lu+"`` (default)
    Location-dependent Extra+_LU extrapolation driven by the static
    LU-bounds analysis of :mod:`repro.ta.bounds`, plus clock-activity
    reduction (clocks that are dead at a location are freed from the
    zone).  Location-reachability-exact for diagonal-free networks;
    networks with diagonal constraints fall back to ``"k"``
    automatically (LU abstraction is unsound for them, Bouyer 2004).
``"k"``
    Classic network-global maximal-constant extrapolation — the exact
    pre-LU engine, preserved bit-identical for differential testing.
``"none"``
    No abstraction (termination only on inherently bounded models).

Every zone handed out by the graph is **interned** in a
:class:`~repro.mc.explorecore.ZoneStore`, so all states, passed-list
buckets and graph nodes share one DBM object per distinct zone.
Interned zones must be copied before mutation (every operation below
already works on fresh copies).  The untimed data of each discrete
configuration is memoised (:class:`_Config`) in a plain dict per graph,
bounded by the state caps of the graph's searches; successor zones are
not: one search expands each stored state once, and the only re-walks
of a graph (liveness after safety, repeated queries on one verifier)
saved less than the lookups cost on the deadlock query.

A fire is two steps: :meth:`ZoneGraph._guard_zone` cuts a copy of the
zone by the clock guards, and :meth:`ZoneGraph._land` turns that guard
zone into the successor in place.  Between them :meth:`ZoneGraph.expand`
tests whether the guard zone covers the zone under delay, so the
deadlock query is decided from the same fire loop that yields the
successors; :meth:`ZoneGraph.guard_zones` keeps copies of the guard
zones for the exact definition in :mod:`repro.mc.deadlock`.
"""

from __future__ import annotations

from ..core.errors import ModelError
from ..dbm.dbm import DBM, k_bounds
from .bounds import network_bounds
from .transitions import (
    delay_forbidden,
    discrete_transitions,
    has_urgent_sync,
)


class _ZoneFire:
    """Pre-encoded firing data of one candidate transition: its
    clock-guard constraint triples grouped per atom, resets, target
    locations and target valuation.  The valuation stays ``None`` until
    the first firing whose guard zone is non-empty, so an update never
    runs while its edge is clock-disabled."""

    __slots__ = ("transition", "guard_groups", "resets", "locs",
                 "valuation")

    def __init__(self, transition, locs):
        self.transition = transition
        self.guard_groups = tuple(
            tuple(atom.encoded_constraints(process.resolve_clock))
            for process, atom in transition.clock_guard_atoms())
        self.resets = tuple(transition.clock_resets())
        self.locs = transition.target_locations(locs)
        self.valuation = None


class _Config:
    """Memoised untimed data of one discrete configuration.

    Everything about a configuration that does not depend on the zone:
    the :class:`_ZoneFire` of each candidate transition, whether a
    committed or urgent location forbids delay (``delay_forbidden``)
    and whether delay is blocked at all, which an enabled urgent
    synchronisation also does (``no_delay``).  Computed once per
    ``(locs, valuation)`` and shared by every zone that reaches the
    configuration.
    """

    __slots__ = ("fires", "delay_forbidden", "no_delay")

    def __init__(self, fires, delay_forbidden, no_delay):
        self.fires = fires
        self.delay_forbidden = delay_forbidden
        self.no_delay = no_delay


class SymState:
    """A symbolic state of the network."""

    __slots__ = ("locs", "valuation", "zone")

    def __init__(self, locs, valuation, zone):
        self.locs = locs
        self.valuation = valuation
        self.zone = zone

    def discrete_key(self):
        return (self.locs, self.valuation.values)

    def key(self):
        return (self.locs, self.valuation.values, self.zone.key())

    def __repr__(self):
        return f"SymState(locs={self.locs}, vars={self.valuation.values})"


class ZoneGraphStats:
    """Plain-int operation counters kept on every graph.

    Incrementing a Python int per zone/constraint is negligible next to
    the O(n^2) DBM work each operation performs, so counting stays on
    unconditionally; :func:`repro.mc.reachability.explore` flushes the
    *delta* of a search into the active metrics collector.
    """

    __slots__ = ("zones_created", "constraints_applied", "empty_zones",
                 "lu_extrapolated", "inactive_clocks_freed")

    def __init__(self):
        self.zones_created = 0
        self.constraints_applied = 0
        self.empty_zones = 0
        self.lu_extrapolated = 0
        self.inactive_clocks_freed = 0

    def snapshot(self):
        return (self.zones_created, self.constraints_applied,
                self.empty_zones, self.lu_extrapolated,
                self.inactive_clocks_freed)

    def __repr__(self):
        return (f"ZoneGraphStats(zones={self.zones_created}, "
                f"constraints={self.constraints_applied}, "
                f"empty={self.empty_zones}, "
                f"lu={self.lu_extrapolated}, "
                f"freed={self.inactive_clocks_freed})")


class ZoneGraph:
    """On-the-fly symbolic transition system of a network.

    ``abstraction`` selects the finite abstraction (see the module
    docstring); ``extra_constants`` raises clock bounds beyond the
    model's own constants (query clocks, see :class:`repro.mc.Verifier`).
    """

    #: There is no successor cache.  The attribute stays because the
    #: benchmark's workloads read ``verifier.graph.succ_cache`` and skip
    #: a ``None`` value.
    succ_cache = None

    def __init__(self, network, extra_constants=None, abstraction="lu+"):
        # Imported here (not at module top) to avoid the package cycle
        # repro.ta -> repro.mc -> repro.mc.engine -> repro.ta.zonegraph.
        from ..mc.explorecore import ZoneStore

        self.network = network.freeze()
        if abstraction not in ("lu+", "k", "none"):
            raise ModelError(f"unknown abstraction {abstraction!r}")
        bounds = None
        if abstraction == "lu+":
            bounds = network_bounds(self.network, extra_constants)
            if bounds.has_diagonals:
                # LU extrapolation is unsound under diagonal
                # constraints; the classic abstraction handles them.
                abstraction = "k"
                bounds = None
        self.abstraction = abstraction
        self._bounds = bounds
        # The k-extrapolation bounds, encoded once per graph.
        self._k_bounds = (k_bounds(network.max_constants(extra_constants))
                          if abstraction == "k" else None)
        self.stats = ZoneGraphStats()
        self.zone_store = ZoneStore()
        self._trans_cache = {}
        # Invariant atoms encoded once per (process, location): the
        # (i, j, bound) triples never change, so the per-zone work in
        # _apply_invariants is just the constrain calls themselves.
        self._invariants = tuple(
            tuple(
                tuple((i, j, b)
                      for atom in location.invariant
                      for i, j, b in atom.encoded_constraints(
                          process.resolve_clock))
                for location in process.locations)
            for process in self.network.processes)

    def telemetry(self):
        """In-flight gauge for the flight recorder's ``mc.explore`` time
        series: the zone-store population, a *physical* quantity unlike
        the logical exploration counters."""
        return {"zones_interned": self.zone_store.distinct}

    # -- helpers ---------------------------------------------------------------

    def _apply_invariants(self, zone, locs):
        stats = self.stats
        for constraints in map(tuple.__getitem__, self._invariants, locs):
            for i, j, b in constraints:
                zone.constrain(i, j, b)
                stats.constraints_applied += 1
                if zone.is_empty():
                    return zone
        return zone

    def _delay_close(self, zone, locs, config):
        """Let time pass (when allowed) and re-apply invariants."""
        if config.no_delay:
            return zone
        zone.up()
        return self._apply_invariants(zone, locs)

    def _finish(self, zone, locs):
        """Apply the configured abstraction at a location vector."""
        if zone.is_empty():
            return zone
        bounds = self._bounds
        if bounds is not None:
            stats = self.stats
            inactive = bounds.inactive_for(locs)
            if inactive:
                for clock in inactive:
                    zone.free(clock)
                stats.inactive_clocks_freed += len(inactive)
            lowers, uppers = bounds.lu_for(locs)
            zone.extrapolate_lu(lowers, uppers)
            stats.lu_extrapolated += 1
        elif self._k_bounds is not None:
            zone.extrapolate_k(*self._k_bounds)
        return zone

    def _config_for(self, locs, valuation):
        """The memoised :class:`_Config` of a discrete configuration.

        Reusing one record per configuration keeps enumeration and
        constraint encoding off the hot path.
        """
        key = (locs, valuation.values)
        config = self._trans_cache.get(key)
        if config is not None:
            return config
        network = self.network
        transitions = tuple(discrete_transitions(network, locs, valuation))
        fires = tuple(_ZoneFire(transition, locs)
                      for transition in transitions)
        forbidden = delay_forbidden(network, locs)
        no_delay = (forbidden
                    or has_urgent_sync(network, locs, valuation, transitions))
        config = _Config(fires, forbidden, no_delay)
        self._trans_cache[key] = config
        return config

    # -- transition system ------------------------------------------------------

    def initial(self):
        locs = self.network.initial_locations()
        valuation = self.network.initial_valuation()
        zone = DBM.zero(self.network.dbm_size)
        self.stats.zones_created += 1
        zone = self._apply_invariants(zone, locs)
        zone = self._delay_close(zone, locs, self._config_for(locs, valuation))
        return SymState(locs, valuation,
                        self.zone_store.intern(self._finish(zone, locs)))

    def successors(self, state):
        """The ``(transition, successor)`` pairs of ``state``, in fire
        order."""
        out = []
        config = self._config_for(state.locs, state.valuation)
        for fire in config.fires:
            zone = self._guard_zone(state.zone, fire)
            if zone is not None:
                succ = self._land(state, fire, zone)
                if succ is not None:
                    out.append((fire.transition, succ))
        return out

    def expand(self, state):
        """:meth:`successors` plus a one-zone deadlock cover test, from
        the same fire loop: ``(successors, covered)``.

        ``covered`` is True when the guard zone ``P`` of one fire that
        yields a successor already covers the zone ``Z``: ``Z ⊆ ↓P``,
        or ``Z ⊆ P`` where a committed or urgent location forbids
        delay.  Then no point of ``Z`` deadlocks.  False means only that
        no single guard zone covers ``Z``; :func:`repro.mc.deadlock.
        deadlocked_part` decides that case over all of them.
        """
        out = []
        config = self._config_for(state.locs, state.valuation)
        zone = state.zone
        covers = (DBM.includes if config.delay_forbidden
                  else DBM.past_includes)
        covered = False
        for fire in config.fires:
            guard = self._guard_zone(zone, fire)
            if guard is None:
                continue
            # Decided before _land resets the guard zone in place.
            cover = not covered and covers(guard, zone)
            succ = self._land(state, fire, guard)
            if succ is not None:
                out.append((fire.transition, succ))
                covered = covered or cover
        return out, covered

    def guard_zones(self, state):
        """The guard zone of every fire of ``state`` that yields a
        successor: the part of the zone where the fire's clock guards
        hold, before delay.  The deadlock definition reads them."""
        parts = []
        config = self._config_for(state.locs, state.valuation)
        for fire in config.fires:
            guard = self._guard_zone(state.zone, fire)
            if guard is None:
                continue
            kept = guard.copy()
            self.stats.zones_created += 1
            if self._land(state, fire, guard) is not None:
                parts.append(kept)
        return parts

    def _guard_zone(self, zone, fire):
        """A copy of ``zone`` cut by the fire's clock guards, or None
        when they are unsatisfiable in it."""
        stats = self.stats
        zone = zone.copy()
        stats.zones_created += 1
        # Emptiness is checked per guard atom, as the atoms were
        # originally applied.
        for group in fire.guard_groups:
            for i, j, b in group:
                zone.constrain(i, j, b)
                stats.constraints_applied += 1
            if zone.is_empty():
                stats.empty_zones += 1
                return None
        if zone.is_empty():
            stats.empty_zones += 1
            return None
        return zone

    def _land(self, state, fire, zone):
        """The successor that firing from guard zone ``zone`` reaches,
        or None when it is empty.  Mutates ``zone``."""
        stats = self.stats
        new_locs, new_valuation = fire.locs, fire.valuation
        if new_valuation is None:
            new_valuation = fire.valuation = \
                fire.transition.apply_updates(state.valuation)
        # Clock resets, then target invariants, then delay closure.
        for clock_index, value in fire.resets:
            zone.reset(clock_index, value)
        zone = self._apply_invariants(zone, new_locs)
        if zone.is_empty():
            stats.empty_zones += 1
            return None
        zone = self._delay_close(zone, new_locs,
                                 self._config_for(new_locs, new_valuation))
        if zone.is_empty():
            stats.empty_zones += 1
            return None
        return SymState(new_locs, new_valuation,
                        self.zone_store.intern(self._finish(zone, new_locs)))
