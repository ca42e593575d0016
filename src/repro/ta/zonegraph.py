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
configuration is memoised (:class:`_Config`); successor zones are not:
one search expands each stored state once, and the only re-walks of a
graph (liveness after safety, repeated queries on one verifier) saved
less than the lookups cost on the deadlock query.
"""

from __future__ import annotations

from ..core.errors import ModelError
from ..dbm.dbm import DBM
from .bounds import network_bounds
from .transitions import (
    delay_forbidden,
    discrete_transitions,
    has_urgent_sync,
)


class _Config:
    """Memoised untimed data of one discrete configuration.

    Everything about a configuration that does not depend on the zone:
    the fully pre-encoded firing data of each candidate transition (the
    transition, its clock-guard constraint triples grouped per atom,
    resets, target locations and valuation), and whether delay is
    blocked (committed / urgent locations or an enabled urgent
    synchronisation).  Computed once per ``(locs, valuation)`` and
    shared by every zone that reaches the configuration.
    """

    __slots__ = ("fires", "no_delay")

    def __init__(self, fires, no_delay):
        self.fires = fires
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
        from ..mc.explorecore import LRUCache, ZoneStore

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
        self._max_constants = (network.max_constants(extra_constants)
                               if abstraction == "k" else None)
        self.stats = ZoneGraphStats()
        self.zone_store = ZoneStore()
        self._trans_cache = LRUCache()
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
        elif self._max_constants is not None:
            zone.extrapolate(self._max_constants)
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
        fires = tuple(
            (transition,
             tuple(tuple(atom.encoded_constraints(process.resolve_clock))
                   for process, atom in transition.clock_guard_atoms()),
             tuple(transition.clock_resets()),
             transition.target_locations(locs),
             transition.apply_updates(valuation))
            for transition in transitions)
        no_delay = (delay_forbidden(network, locs)
                    or has_urgent_sync(network, locs, valuation, transitions))
        config = _Config(fires, no_delay)
        self._trans_cache.put(key, config)
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
        """Yield ``(transition, successor)`` pairs."""
        out = []
        config = self._config_for(state.locs, state.valuation)
        for entry in config.fires:
            succ = self._fire(state, entry)
            if succ is not None:
                out.append((entry[0], succ))
        return out

    def _fire(self, state, entry):
        stats = self.stats
        zone = state.zone.copy()
        stats.zones_created += 1
        _transition, guard_groups, resets, new_locs, new_valuation = entry
        # Clock guards (emptiness checked per guard atom, as the atoms
        # were originally applied).
        for group in guard_groups:
            for i, j, b in group:
                zone.constrain(i, j, b)
                stats.constraints_applied += 1
            if zone.is_empty():
                stats.empty_zones += 1
                return None
        if zone.is_empty():
            stats.empty_zones += 1
            return None
        # Clock resets, then target invariants, then delay closure.
        for clock_index, value in resets:
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

    def enabled_action_zone_parts(self, state):
        """For each enabled transition, the part of the zone where its
        clock guards hold (before delay).  Used by the deadlock check."""
        parts = []
        config = self._config_for(state.locs, state.valuation)
        for _transition, guard_groups, resets, new_locs, _vals in config.fires:
            zone = state.zone.copy()
            self.stats.zones_created += 1
            for group in guard_groups:
                for i, j, b in group:
                    zone.constrain(i, j, b)
                    self.stats.constraints_applied += 1
                if zone.is_empty():
                    break
            if zone.is_empty():
                continue
            # The step must also land in a non-empty target situation:
            # apply resets and target invariants.
            probe = zone.copy()
            for clock_index, value in resets:
                probe.reset(clock_index, value)
            probe = self._apply_invariants(probe, new_locs)
            if probe.is_empty():
                continue
            parts.append(zone)
        return parts
