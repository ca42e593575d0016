"""Networks of timed automata.

A network instantiates templates under process names (``Train(0)``,
``Gate`` ...), renames local clocks apart, shares a single table of
discrete variables, and declares the channels processes synchronise on —
exactly the structure of an UPPAAL system declaration.
"""

from __future__ import annotations

from ..core.errors import ModelError
from ..core.values import Declarations
from .syntax import Automaton, Channel


class Process:
    """An instantiated template: a component of the network."""

    __slots__ = ("name", "automaton", "index", "location_names",
                 "location_index", "locations", "clock_index",
                 "edges_by_source")

    def __init__(self, name, automaton, index, clock_index):
        self.name = name
        self.automaton = automaton
        self.index = index
        self.location_names = tuple(automaton.locations)
        self.location_index = {
            loc: i for i, loc in enumerate(self.location_names)}
        self.locations = tuple(
            automaton.locations[n] for n in self.location_names)
        #: map from the template's local clock name to a global DBM index
        self.clock_index = clock_index
        by_source = {}
        for edge in automaton.edges:
            by_source.setdefault(edge.source, []).append(edge)
        self.edges_by_source = by_source

    def initial_location_index(self):
        return self.location_index[self.automaton.initial_location]

    def location(self, loc_index):
        """The :class:`Location` object at a location index."""
        return self.locations[loc_index]

    def edges_from(self, loc_index):
        return self.edges_by_source.get(self.location_names[loc_index], ())

    def resolve_location(self, name):
        """The index of the location called ``name``."""
        try:
            return self.location_index[name]
        except KeyError:
            raise ModelError(
                f"process {self.name}: unknown location {name!r}"
            ) from None

    def resolve_clock(self, local_name):
        try:
            return self.clock_index[local_name]
        except KeyError:
            raise ModelError(
                f"process {self.name}: unknown clock {local_name!r}"
            ) from None

    def __repr__(self):
        return f"Process({self.name}: {self.automaton.name})"


class Network:
    """A closed network of timed automata plus shared data and channels."""

    def __init__(self, name="network"):
        self.name = name
        self.declarations = Declarations()
        self.channels = {}
        self.processes = []
        self._clock_names = []   # global clock names, 1-based DBM indices
        self._frozen = False
        self._derived = {}       # see derived()

    # -- construction ---------------------------------------------------------

    def add_channel(self, name, broadcast=False, urgent=False):
        if self._frozen:
            raise ModelError("network already frozen")
        if name in self.channels:
            raise ModelError(f"channel {name!r} declared twice")
        channel = Channel(name, broadcast=broadcast, urgent=urgent)
        self.channels[name] = channel
        return channel

    def add_process(self, name, automaton):
        """Instantiate ``automaton`` under ``name``."""
        if self._frozen:
            raise ModelError("network already frozen")
        if not isinstance(automaton, Automaton):
            raise ModelError(f"{name}: not an automaton")
        if any(p.name == name for p in self.processes):
            raise ModelError(f"process {name!r} added twice")
        automaton.validate()
        clock_index = {}
        for clock in automaton.clocks:
            self._clock_names.append(f"{name}.{clock}")
            clock_index[clock] = len(self._clock_names)  # DBM index
        process = Process(name, automaton, len(self.processes), clock_index)
        self.processes.append(process)
        return process

    def freeze(self):
        """Validate cross-references; no more construction afterwards."""
        if self._frozen:
            return self
        for process in self.processes:
            for edge in process.automaton.edges:
                if edge.sync is not None:
                    channel, _direction = edge.sync
                    if channel not in self.channels:
                        raise ModelError(
                            f"{process.name}: unknown channel {channel!r}")
        self._frozen = True
        return self

    # -- introspection --------------------------------------------------------

    @property
    def dbm_size(self):
        """Number of clocks including the reference clock."""
        return len(self._clock_names) + 1

    @property
    def clock_names(self):
        return tuple(self._clock_names)

    def process_by_name(self, name):
        for process in self.processes:
            if process.name == name:
                return process
        raise ModelError(f"unknown process {name!r}")

    def initial_locations(self):
        return tuple(p.initial_location_index() for p in self.processes)

    def initial_valuation(self):
        return self.declarations.initial()

    def location_vector_names(self, locs):
        """Human-readable location names for a location-index vector."""
        return tuple(p.location_names[li] for p, li in
                     zip(self.processes, locs))

    def max_constants(self, extra=None):
        """Per-clock maximal constants for extrapolation.

        Scans every invariant and guard; ``extra`` maps global clock
        indices to additional constants (e.g. from time-bounded queries).
        A frozen network keeps the scan among its :meth:`derived`
        tables, so building many zone graphs over one network scans the
        model once.
        """
        if self._frozen:
            return list(self.derived(Network._scan_max_constants, extra))
        return list(self._scan_max_constants(extra))

    # -- derived tables -------------------------------------------------------

    def derived(self, build, extra_constants=None):
        """``build(self, extra_constants)``, built once per frozen network.

        Every table derived from the network's structure (its maximal
        constants, LU bounds, shared integer-clock semantics and the
        stochastic simulator's plans) lives in one dict on the network,
        keyed by the builder and the extra constants (global clock
        index -> constant), so it lives exactly as long as the network.
        Freezes the network first.  Copies and pickles carry no derived
        tables (:meth:`__getstate__`): a copy whose guards are then
        changed rebuilds them.  Two threads may both build a missing
        table; the first one stored is the one every later call gets.
        """
        self.freeze()
        key = (build, tuple(sorted(extra_constants.items()))
               if extra_constants else ())
        table = self._derived.get(key)
        if table is None:
            table = self._derived.setdefault(
                key, build(self, extra_constants))
        return table

    def __getstate__(self):
        return {**self.__dict__, "_derived": {}}

    def _scan_max_constants(self, extra):
        consts = [0] * self.dbm_size
        for process in self.processes:
            atoms = []
            for loc in process.locations:
                atoms.extend(loc.invariant)
            for edge in process.automaton.edges:
                atoms.extend(edge.guard)
            for atom in atoms:
                i = process.resolve_clock(atom.clock)
                consts[i] = max(consts[i], abs(atom.bound))
                if atom.other is not None:
                    j = process.resolve_clock(atom.other)
                    consts[j] = max(consts[j], abs(atom.bound))
        if extra:
            for index, value in extra.items():
                consts[index] = max(consts[index], value)
        return tuple(consts)

    def __repr__(self):
        return (f"Network({self.name}, {len(self.processes)} processes, "
                f"{len(self._clock_names)} clocks)")
